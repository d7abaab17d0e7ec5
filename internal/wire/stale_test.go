package wire

import (
	"context"
	"net"
	"testing"
	"time"
)

// TestPoolSurvivesServerRestart restarts the server between two queries on
// a pooled client: the pooled connection is dead (the old server closed
// it), and the client must discard it and redial transparently instead of
// failing the request.
func TestPoolSurvivesServerRestart(t *testing.T) {
	db := wireDB(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	addr := l.Addr().String()
	srvA := &Server{DB: db}
	go srvA.Serve(l)

	client := Dial(addr)
	defer client.Close()
	rows, err := client.QueryResumable(ctx, nationSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, rows)
	if client.IdleConns() != 1 {
		t.Fatalf("IdleConns = %d, want 1 (connection should be pooled)", client.IdleConns())
	}

	// Restart: shut server A down (closing its side of the pooled
	// connection) and bring server B up on the same address.
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	err = srvA.Shutdown(sctx)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srvB := &Server{DB: db}
	go srvB.Serve(l2)
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srvB.Shutdown(sctx)
	}()

	// Give the old server's FIN time to reach the pooled connection so the
	// liveness check sees a dead socket rather than a race.
	time.Sleep(50 * time.Millisecond)

	rows, err = client.QueryResumable(ctx, nationSQL, nil)
	if err != nil {
		t.Fatalf("query after server restart: %v", err)
	}
	if got := drain(t, rows); len(got) != 3 {
		t.Fatalf("got %d rows after restart, want 3", len(got))
	}
}
