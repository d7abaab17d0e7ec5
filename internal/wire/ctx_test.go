package wire

// Cancellation, deadline, retry, pooling, and graceful-shutdown coverage
// for the wire layer: the production-shaped behaviours the middleware
// depends on when the target server is slow, gone, or draining.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"silkroute/internal/engine"
	"silkroute/internal/schema"
	"silkroute/internal/value"
)

// seqDB builds a single-relation database with n wide rows, so a full
// result stream is far larger than any client-side buffer and the server
// must stay blocked on the pipe mid-stream.
func seqDB(t testing.TB, n int) *engine.Database {
	t.Helper()
	s := schema.New()
	s.MustAddRelation("Seq", []string{"k"},
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "label", Type: value.KindString})
	db := engine.NewDatabase(s)
	pad := strings.Repeat("x", 200)
	for i := 0; i < n; i++ {
		db.MustTable("Seq").MustInsert(value.Int(int64(i)), value.String(pad))
	}
	return db
}

const seqQuery = "select s.k, s.label from Seq s order by s.k"

// countingDialer wraps InProcess-style dialing with a dial counter and an
// optional number of initial synthetic failures.
func countingDialer(srv *Server, dials *atomic.Int64, failFirst int64) Dialer {
	return func(context.Context) (net.Conn, error) {
		if n := dials.Add(1); n <= failFirst {
			return nil, fmt.Errorf("synthetic dial failure %d", n)
		}
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		return c1, nil
	}
}

func TestCancelMidStreamClosesConnPromptly(t *testing.T) {
	srv := &Server{DB: seqDB(t, 2000)}
	var dials atomic.Int64
	client := NewClient(countingDialer(srv, &dials, 0))

	qctx, cancel := context.WithCancel(context.Background())
	rows, err := client.Query(qctx, seqQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()

	start := time.Now()
	for {
		_, err = rows.Next()
		if err != nil {
			break
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v to surface", elapsed)
	}
	if err == io.EOF {
		t.Fatal("stream ended cleanly despite cancellation")
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrCanceled) {
		t.Errorf("mid-stream cancel error = %v, want context.Canceled", err)
	}
	// The interrupted connection must not be repooled: it has unread
	// frames in flight and would desynchronize the next request.
	if n := client.IdleConns(); n != 0 {
		t.Errorf("IdleConns after cancel = %d, want 0", n)
	}

	// The client itself stays usable — a fresh request dials fresh.
	rows2, err := client.Query(context.Background(), seqQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(t, rows2)); got != 2000 {
		t.Errorf("post-cancel query rows = %d, want 2000", got)
	}
}

// readAheadConn delivers a whole response in its first Read, as a client
// whose socket had already received everything would see it.
type readAheadConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *readAheadConn) Read(p []byte) (int, error) {
	if c.buf.Len() == 0 {
		// Status frame, then data frames up to the empty end frame.
		tee := io.TeeReader(c.Conn, &c.buf)
		for i := 0; ; i++ {
			frame, err := readFrame(tee, nil, maxFrame)
			if err != nil {
				return 0, err
			}
			if i > 0 && len(frame) == 0 {
				break
			}
		}
	}
	return c.buf.Read(p)
}

func TestCancelWithStreamBufferedEndsInCancel(t *testing.T) {
	srv := &Server{DB: seqDB(t, 10)}
	client := NewClient(func(context.Context) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		return &readAheadConn{Conn: c1}, nil
	})
	qctx, cancel := context.WithCancel(context.Background())
	rows, err := client.Query(qctx, seqQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	// Every remaining row and the end frame are in the client's buffer now.
	cancel()
	for err == nil {
		_, err = rows.Next()
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrCanceled) {
		t.Fatalf("error after cancel = %v, want context.Canceled and ErrCanceled", err)
	}
	if n := client.IdleConns(); n != 0 {
		t.Errorf("IdleConns after cancel = %d, want 0", n)
	}
}

func TestDeadlineAgainstStalledServer(t *testing.T) {
	// A server that accepts and reads but never answers — the failure mode
	// that used to hang the middleware forever.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()

	client := Dial(l.Addr().String())
	qctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Query(qctx, seqQuery)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against stalled server succeeded")
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("stalled-server error = %v, want context.DeadlineExceeded", err)
	}
}

func TestRetryRecoversDialFailureWithoutDuplication(t *testing.T) {
	const rowCount = 700 // several batch frames
	srv := &Server{DB: seqDB(t, rowCount)}
	var dials atomic.Int64
	client := NewClient(countingDialer(srv, &dials, 1),
		WithRetry(Retry{MaxAttempts: 3, BaseDelay: time.Millisecond}))

	rows, err := client.Query(context.Background(), seqQuery)
	if err != nil {
		t.Fatalf("query with one dial failure: %v", err)
	}
	got := drain(t, rows)
	if len(got) != rowCount {
		t.Errorf("rows after retry = %d, want exactly %d (no duplication)", len(got), rowCount)
	}
	for i, r := range got {
		if r[0].AsInt() != int64(i) {
			t.Fatalf("row %d out of order after retry: %v", i, r[0])
		}
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("dials = %d, want 2 (one failure, one success)", n)
	}
}

func TestNoRetryWithoutPolicy(t *testing.T) {
	srv := &Server{DB: seqDB(t, 3)}
	var dials atomic.Int64
	client := NewClient(countingDialer(srv, &dials, 1))
	if _, err := client.Query(context.Background(), seqQuery); err == nil {
		t.Fatal("query succeeded despite dial failure and no retry policy")
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("dials = %d, want 1", n)
	}
}

func TestServerErrorNotRetried(t *testing.T) {
	// A definitive server answer must not be retried even under an
	// aggressive policy: the server spoke, the answer is final.
	srv := &Server{DB: seqDB(t, 3)}
	var dials atomic.Int64
	client := NewClient(countingDialer(srv, &dials, 0),
		WithRetry(Retry{MaxAttempts: 5, BaseDelay: time.Millisecond}))
	_, err := client.Query(context.Background(), "select g.x from Ghost g")
	if err == nil {
		t.Fatal("query on unknown table succeeded")
	}
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeSQL {
		t.Errorf("server error = %v, want *Error with CodeSQL", err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("dials = %d, want 1 (no retry of a definitive answer)", n)
	}
}

func TestPoolReusesConnections(t *testing.T) {
	srv := &Server{DB: seqDB(t, 10)}
	var dials atomic.Int64
	client := NewClient(countingDialer(srv, &dials, 0))

	for i := 0; i < 5; i++ {
		rows, err := client.Query(context.Background(), seqQuery)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, rows)
	}
	if _, err := client.Estimate(context.Background(), seqQuery); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("dials = %d, want 1 (sequential requests share one pooled conn)", n)
	}
	if n := client.IdleConns(); n != 1 {
		t.Errorf("IdleConns = %d, want 1", n)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if n := client.IdleConns(); n != 0 {
		t.Errorf("IdleConns after Close = %d, want 0", n)
	}
	if _, err := client.Query(context.Background(), seqQuery); !errors.Is(err, ErrClientClosed) {
		t.Errorf("query on closed client = %v, want ErrClientClosed", err)
	}
}

func TestServerShutdownDrains(t *testing.T) {
	db := seqDB(t, 2000)
	srv := &Server{DB: db}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	client := Dial(l.Addr().String())
	rows, err := client.Query(context.Background(), seqQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}

	// Shutdown while the stream is in flight; a concurrent reader drains
	// it, so the drain must complete and Shutdown must report success.
	shutErr := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutErr <- srv.Shutdown(sctx)
	}()
	got := 1
	for {
		if _, err := rows.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("in-flight stream broken during graceful drain: %v", err)
		}
		got++
	}
	if got != 2000 {
		t.Errorf("drained %d rows, want 2000", got)
	}
	if err := <-shutErr; err != nil {
		t.Errorf("Shutdown = %v, want nil after clean drain", err)
	}
	if err := <-serveErr; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve after Shutdown = %v, want ErrServerClosed", err)
	}
	// New work is refused once the server is gone.
	if _, err := client.Query(context.Background(), seqQuery); err == nil {
		t.Error("query after shutdown succeeded")
	}
}

func TestServerShutdownForceClosesOnExpiredContext(t *testing.T) {
	srv := &Server{DB: seqDB(t, 2000)}
	var dials atomic.Int64
	client := NewClient(countingDialer(srv, &dials, 0))
	rows, err := client.Query(context.Background(), seqQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}

	// Nobody drains the stream, so the grace period expires and the
	// server force-closes the connection.
	sctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(sctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown with stuck stream = %v, want context.DeadlineExceeded", err)
	}
	for {
		if _, err = rows.Next(); err != nil {
			break
		}
	}
	if err == io.EOF {
		t.Error("abandoned stream ended cleanly after force-close")
	}
}

func TestQueryWithPreCanceledContext(t *testing.T) {
	srv := &Server{DB: seqDB(t, 3)}
	var dials atomic.Int64
	client := NewClient(countingDialer(srv, &dials, 0))
	qctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Query(qctx, seqQuery); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled query = %v, want context.Canceled", err)
	}
	if _, err := client.Estimate(qctx, seqQuery); !errors.Is(err, ErrCanceled) {
		t.Errorf("pre-canceled estimate = %v, want ErrCanceled", err)
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("dials = %d, want 0 for pre-canceled requests", n)
	}
}
