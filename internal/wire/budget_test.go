package wire

// Deadline-budget propagation coverage: budgets ride the request frame,
// spent budgets shed client-side before any dial, and the server refuses
// an unservable budget before the engine runs — with the connection still
// request-aligned afterwards.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestBudgetedQueryRoundTrip: with a context deadline, the client sets the
// budgeted flag and the stream must still arrive complete and in order —
// the budget field must not disturb the framing.
func TestBudgetedQueryRoundTrip(t *testing.T) {
	srv := &Server{DB: seqDB(t, 100)}
	var dials atomic.Int64
	client := NewClient(countingDialer(srv, &dials, 0))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rows, err := client.Query(ctx, seqQuery)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		row, err := rows.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := row[0].AsInt(); got != int64(n) {
			t.Fatalf("row %d: k = %d", n, got)
		}
		n++
	}
	if n != 100 {
		t.Fatalf("rows = %d, want 100", n)
	}

	if _, err := client.Estimate(ctx, seqQuery); err != nil {
		t.Fatalf("budgeted estimate: %v", err)
	}
}

// TestSpentBudgetShedsWithoutDialing: a request whose deadline has already
// passed must fail typed (ErrDeadlineExceeded) without opening a single
// backend connection — the client-side shed is what keeps retries,
// resumes, and failovers from doing work nobody can use.
func TestSpentBudgetShedsWithoutDialing(t *testing.T) {
	srv := &Server{DB: seqDB(t, 10)}
	var dials atomic.Int64
	client := NewClient(countingDialer(srv, &dials, 0))

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	if _, err := client.Query(ctx, seqQuery); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Query error = %v, want ErrDeadlineExceeded", err)
	}
	if _, err := client.Estimate(ctx, seqQuery); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("Estimate error = %v, want ErrDeadlineExceeded", err)
	}
	// The freshness probe rides the same path: a spent request must not
	// dial for it either.
	if _, err := client.StatsEpoch(ctx); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("StatsEpoch error = %v, want ErrDeadlineExceeded", err)
	}
	if got := dials.Load(); got != 0 {
		t.Fatalf("dials = %d, want 0 — spent budget must shed before the transport", got)
	}
}

// TestServerRefusesUnservableBudget speaks the protocol raw: a budgeted
// request of any op whose budget is below the server's minimum must come
// back as a CodeDeadline error frame without executing, and the connection
// must stay request-aligned — the next unbudgeted query on the same conn
// serves normally.
func TestServerRefusesUnservableBudget(t *testing.T) {
	srv := &Server{DB: seqDB(t, 10)}
	c1, c2 := net.Pipe()
	defer c1.Close()
	go srv.ServeConn(c2)
	br := bufio.NewReader(c1)

	for _, op := range []byte{opQuery, opEstimate, opEpoch} {
		req := request{op: op, sql: seqQuery}.withBudget(time.Microsecond)
		resp := sendRaw(t, c1, br, appendRequest(nil, req))
		if len(resp) < 2 || resp[0] != 'E' {
			t.Fatalf("%q: response frame = %q, want error frame", op, resp)
		}
		if got := Code(resp[1]); got != CodeDeadline {
			t.Fatalf("%q: error code = %s, want %s", op, got, CodeDeadline)
		}
	}

	// Same connection, next request: must be served as if the refusals
	// never happened.
	resp := sendRaw(t, c1, br, appendRequest(nil, request{op: opQuery, sql: seqQuery}))
	if len(resp) < 1 || resp[0] != 'C' {
		t.Fatalf("follow-up response = %q, want columns frame", resp)
	}
}

// TestBudgetForFloorsAndZeroes pins the budget derivation: no deadline
// means no budget (the budgeted flag stays clear), and a deadline
// already behind us still encodes a positive budget so the server — not a
// zero-value ambiguity — delivers the typed refusal.
func TestBudgetForFloorsAndZeroes(t *testing.T) {
	if got := budgetFor(time.Time{}); got != 0 {
		t.Errorf("budgetFor(zero) = %v, want 0", got)
	}
	if got := budgetFor(time.Now().Add(-time.Second)); got != 1 {
		t.Errorf("budgetFor(past) = %v, want 1ns floor", got)
	}
	if got := budgetFor(time.Now().Add(time.Hour)); got < 59*time.Minute {
		t.Errorf("budgetFor(+1h) = %v, want ~1h", got)
	}
}
