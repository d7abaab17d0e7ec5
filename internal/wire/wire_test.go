package wire

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"silkroute/internal/engine"
	"silkroute/internal/schema"
	"silkroute/internal/value"
)

// ctx is the do-not-care context threaded through tests that exercise
// framing rather than cancellation; ctx_test.go covers the latter.
var ctx = context.Background()

func wireDB(t *testing.T) *engine.Database {
	t.Helper()
	s := schema.New()
	s.MustAddRelation("Nation", []string{"nationkey"},
		schema.Column{Name: "nationkey", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString})
	db := engine.NewDatabase(s)
	for i, n := range []string{"USA", "Spain", "France"} {
		db.MustTable("Nation").MustInsert(value.Int(int64(i+1)), value.String(n))
	}
	return db
}

func drain(t *testing.T, rows *Rows) [][]value.Value {
	t.Helper()
	var out [][]value.Value
	for {
		row, err := rows.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, row)
	}
}

func TestInProcessQuery(t *testing.T) {
	client := InProcess(wireDB(t))
	rows, err := client.QueryResumable(ctx, "select n.nationkey, n.name from Nation n order by n.nationkey", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 2 || rows.Columns[0] != "nationkey" || rows.Columns[1] != "name" {
		t.Fatalf("Columns = %v", rows.Columns)
	}
	got := drain(t, rows)
	if len(got) != 3 {
		t.Fatalf("got %d rows", len(got))
	}
	if got[0][1].AsString() != "USA" || got[2][1].AsString() != "France" {
		t.Errorf("rows = %v", got)
	}
	if rows.RowCount != 3 || rows.BytesRead <= 0 {
		t.Errorf("instrumentation: rows=%d bytes=%d", rows.RowCount, rows.BytesRead)
	}
	// EOF is sticky.
	if _, err := rows.Next(); err != io.EOF {
		t.Errorf("post-EOF Next: %v", err)
	}
}

func TestServerError(t *testing.T) {
	client := InProcess(wireDB(t))
	_, err := client.QueryResumable(ctx, "select g.x from Ghost g", nil)
	if err == nil {
		t.Fatal("query on unknown table succeeded")
	}
}

func TestNullsCostBytesOnTheWire(t *testing.T) {
	db := wireDB(t)
	client := InProcess(db)

	narrow, err := client.QueryResumable(ctx, "select n.nationkey from Nation n order by n.nationkey", nil)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, narrow)

	padded, err := client.QueryResumable(ctx,
		"select n.nationkey, null as a, null as b, null as c, null as d from Nation n order by n.nationkey", nil)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, padded)

	if padded.BytesRead <= narrow.BytesRead {
		t.Errorf("null padding should cost transfer bytes: padded=%d narrow=%d",
			padded.BytesRead, narrow.BytesRead)
	}
}

func TestTCPLoopback(t *testing.T) {
	db := wireDB(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	srv := &Server{DB: db}
	go srv.Serve(l)

	client := NewClient(func(context.Context) (net.Conn, error) {
		return net.Dial("tcp", l.Addr().String())
	})
	rows, err := client.QueryResumable(ctx, "select n.name from Nation n order by n.name", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	if len(got) != 3 || got[0][0].AsString() != "France" {
		t.Errorf("rows = %v", got)
	}
}

func TestConcurrentStreams(t *testing.T) {
	// A plan with k tuple streams opens k concurrent connections; make
	// sure interleaved reads do not interfere.
	client := InProcess(wireDB(t))
	const k = 8
	var wg sync.WaitGroup
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, err := client.QueryResumable(ctx, fmt.Sprintf(
				"select n.nationkey from Nation n where n.nationkey >= %d order by n.nationkey", i%3), nil)
			if err != nil {
				errs <- err
				return
			}
			for {
				if _, err := rows.Next(); err == io.EOF {
					return
				} else if err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCloseEarlyDoesNotHang(t *testing.T) {
	client := InProcess(wireDB(t))
	rows, err := client.QueryResumable(ctx, "select n.nationkey, n.name from Nation n order by n.nationkey", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != io.EOF {
		t.Errorf("Next after Close: %v, want io.EOF", err)
	}
}

func TestBatchedFrames(t *testing.T) {
	// More rows than batchMaxRows forces the server to emit several batch
	// frames; the client must peel individual rows back out, in order, and
	// Close must stay idempotent afterwards.
	s := schema.New()
	s.MustAddRelation("Seq", []string{"k"},
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "label", Type: value.KindString})
	db := engine.NewDatabase(s)
	n := batchMaxRows*2 + 17
	for i := 0; i < n; i++ {
		db.MustTable("Seq").MustInsert(value.Int(int64(i)), value.String(fmt.Sprintf("row-%d", i)))
	}

	client := InProcess(db)
	rows, err := client.QueryResumable(ctx, "select s.k, s.label from Seq s order by s.k", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	if len(got) != n {
		t.Fatalf("got %d rows, want %d", len(got), n)
	}
	for i, r := range got {
		if r[0].AsInt() != int64(i) || r[1].AsString() != fmt.Sprintf("row-%d", i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	if rows.RowCount != int64(n) {
		t.Errorf("RowCount = %d, want %d", rows.RowCount, n)
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close after EOF: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	client := NewClient(func(context.Context) (net.Conn, error) {
		return nil, fmt.Errorf("synthetic dial failure")
	})
	if _, err := client.QueryResumable(ctx, "select 1 as x", nil); err == nil {
		t.Error("Query with failing dial succeeded")
	}
}

func TestValueRoundTripThroughWire(t *testing.T) {
	s := schema.New()
	s.MustAddRelation("T", []string{"k"},
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "f", Type: value.KindFloat},
		schema.Column{Name: "s", Type: value.KindString},
		schema.Column{Name: "n", Type: value.KindString})
	db := engine.NewDatabase(s)
	db.MustTable("T").MustInsert(value.Int(-7), value.Float(2.5), value.String("ü✓"), value.Null)

	client := InProcess(db)
	rows, err := client.QueryResumable(ctx, "select t.k, t.f, t.s, t.n from T t", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	if len(got) != 1 {
		t.Fatalf("rows = %v", got)
	}
	r := got[0]
	if r[0].AsInt() != -7 || r[1].AsFloat() != 2.5 || r[2].AsString() != "ü✓" || !r[3].IsNull() {
		t.Errorf("round trip mangled row: %v", r)
	}
}

func TestEstimateOverWire(t *testing.T) {
	db := wireDB(t)
	client := InProcess(db)
	est, err := client.Estimate(ctx, "select n.nationkey, n.name from Nation n")
	if err != nil {
		t.Fatal(err)
	}
	if est.Rows != 3 {
		t.Errorf("remote estimate rows = %v, want 3", est.Rows)
	}
	if est.Cost <= 0 || est.Width <= 0 {
		t.Errorf("remote estimate = %+v", est)
	}
	// The wire answer must match the local oracle exactly.
	local, err := db.EstimateSQL("select n.nationkey, n.name from Nation n")
	if err != nil {
		t.Fatal(err)
	}
	// The wire estimate itself added one request; values are pure
	// functions of the query and statistics.
	if est != local {
		t.Errorf("wire estimate %+v != local %+v", est, local)
	}
}

func TestEstimateErrorOverWire(t *testing.T) {
	client := InProcess(wireDB(t))
	if _, err := client.Estimate(ctx, "select g.x from Ghost g"); err == nil {
		t.Error("estimate of unknown table succeeded over wire")
	}
	if _, err := client.Estimate(ctx, "not even ( sql"); err == nil {
		t.Error("estimate of invalid SQL succeeded over wire")
	}
}

func TestUnknownRequestKind(t *testing.T) {
	db := wireDB(t)
	srv := &Server{DB: db}
	c1, c2 := net.Pipe()
	go srv.ServeConn(c2)
	bw := bufio.NewWriter(c1)
	if err := writeFrame(bw, []byte{'Z', 'x'}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c1)
	resp, err := readFrame(br, nil, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) == 0 || resp[0] != 'E' {
		t.Errorf("unknown request kind answered %q", resp)
	}
	c1.Close()
}
