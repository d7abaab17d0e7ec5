package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"silkroute/internal/engine"
)

// replicaHarness builds a ReplicaSet of n in-process replicas over the
// same database, each with its own server and (optional) per-replica row
// fault. queries[i] counts the streams replica i has served.
func replicaHarness(t *testing.T, db *engine.Database, faults []func(string) func(int64) error, copts []ClientOption, ropts ...ReplicaOption) (*ReplicaSet, []*int64) {
	t.Helper()
	n := len(faults)
	clients := make([]*Client, n)
	counts := make([]*int64, n)
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		count := new(int64)
		counts[i] = count
		fault := faults[i]
		srv := &Server{DB: db, RowFault: func(sql string) func(int64) error {
			mu.Lock()
			*count++
			mu.Unlock()
			if fault == nil {
				return nil
			}
			return fault(sql)
		}}
		clients[i] = NewClient(func(context.Context) (net.Conn, error) {
			c1, c2 := net.Pipe()
			go srv.ServeConn(c2)
			return c1, nil
		}, copts...)
	}
	set := NewReplicaSet(clients, ropts...)
	t.Cleanup(func() { set.Close() })
	return set, counts
}

func TestReplicaSetSpreadsStreams(t *testing.T) {
	// With identical zero state, the first three picks must rotate through
	// all three replicas: round-robin is the tiebreaker among equals.
	db := bigDB(t, 10, 1)
	set, _ := replicaHarness(t, db, make([]func(string) func(int64) error, 3), nil)

	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		rows, err := set.QueryResumable(ctx, bigSQL, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[rows.Replica] = true
		drain(t, rows)
	}
	if len(seen) != 3 {
		t.Fatalf("first three streams used replicas %v, want all of 0,1,2", seen)
	}
}

func TestReplicaSetPrefersLeastInFlight(t *testing.T) {
	db := bigDB(t, 50, 1)
	set, _ := replicaHarness(t, db, make([]func(string) func(int64) error, 2), nil)

	// Hold a stream open on the round-robin's next choice; the balancer
	// must route the second stream to the idle replica anyway.
	first, err := set.QueryResumable(ctx, bigSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	set.rr.Store(uint64(first.Replica)) // make round-robin point at the busy replica again
	second, err := set.QueryResumable(ctx, bigSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if second.Replica == first.Replica {
		t.Fatalf("both streams landed on replica %d; want the idle one", first.Replica)
	}
}

func TestReplicaSetSkipsOpenBreaker(t *testing.T) {
	db := bigDB(t, 10, 1)
	set, _ := replicaHarness(t, db, make([]func(string) func(int64) error, 2),
		[]ClientOption{WithBreaker(Breaker{Threshold: 1, Cooldown: time.Minute})})

	// Force replica 0's breaker open; every pick must avoid it.
	c0 := set.reps[0].client
	c0.brMu.Lock()
	c0.setBreakerState(breakerOpen)
	c0.brOpenedAt = time.Now()
	c0.brMu.Unlock()

	set.rr.Store(0) // round-robin would choose replica 0
	for i := 0; i < 3; i++ {
		rows, err := set.QueryResumable(ctx, bigSQL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Replica != 1 {
			t.Fatalf("stream %d landed on open-circuit replica %d", i, rows.Replica)
		}
		drain(t, rows)
	}
}

func TestReplicaSetFailoverMidStream(t *testing.T) {
	// Replica 0 kills every stream — original and each continuation — after
	// 10 rows, forever. The stream's first reopen must leave replica 0 and
	// finish on a healthy replica, delivering the full result with no gap
	// or overlap.
	db := bigDB(t, 300, 1)
	alwaysKill := func(string) func(int64) error {
		return func(i int64) error {
			if i >= 10 {
				return errInjected
			}
			return nil
		}
	}
	set, counts := replicaHarness(t, db,
		[]func(string) func(int64) error{alwaysKill, nil, nil},
		[]ClientOption{
			WithResume(Resume{MaxResumes: 2}),
		})

	set.rr.Store(0) // land the stream on the kill-happy replica
	rows, err := set.QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rows.Replica != 0 {
		t.Fatalf("stream opened on replica %d, want 0", rows.Replica)
	}
	got := drain(t, rows)
	checkBigRows(t, got, 300, 1)
	if rows.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", rows.Failovers)
	}
	if rows.Replica == 0 {
		t.Errorf("stream finished on the dead replica")
	}
	if *counts[0] != 1 {
		t.Errorf("replica 0 served %d streams, want 1: the first reopen must leave it", *counts[0])
	}
}

func TestReplicaSetOpenFailsOverToHealthyReplica(t *testing.T) {
	// Replica 0 refuses every dial; the initial open must move on and
	// succeed on replica 1 without burning the whole query.
	db := bigDB(t, 20, 1)
	dead := NewClient(func(context.Context) (net.Conn, error) {
		return nil, errInjected
	})
	srv := &Server{DB: db}
	live := NewClient(func(context.Context) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		return c1, nil
	})
	set := NewReplicaSet([]*Client{dead, live})
	t.Cleanup(func() { set.Close() })

	set.rr.Store(0)
	rows, err := set.QueryResumable(ctx, bigSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Replica != 1 {
		t.Fatalf("stream landed on replica %d, want 1", rows.Replica)
	}
	got := drain(t, rows)
	if len(got) != 20 {
		t.Fatalf("got %d rows, want 20", len(got))
	}
}

func TestReplicaSetNoHealthyReplica(t *testing.T) {
	// Every replica refuses dials with a 1-failure breaker: the first query
	// opens every breaker, the second must fail fast and typed.
	refuse := func(context.Context) (net.Conn, error) { return nil, errInjected }
	clients := []*Client{
		NewClient(refuse, WithBreaker(Breaker{Threshold: 1, Cooldown: time.Minute})),
		NewClient(refuse, WithBreaker(Breaker{Threshold: 1, Cooldown: time.Minute})),
	}
	set := NewReplicaSet(clients)
	t.Cleanup(func() { set.Close() })

	if _, err := set.QueryResumable(ctx, bigSQL, nil); err == nil {
		t.Fatal("first query succeeded against dial-refusing replicas")
	} else if errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("first query failed with ErrNoHealthyReplica (%v); want the underlying dial error", err)
	}
	_, err := set.QueryResumable(ctx, bigSQL, nil)
	if !errors.Is(err, ErrNoHealthyReplica) {
		t.Fatalf("err = %v, want ErrNoHealthyReplica once every breaker is open", err)
	}
}

func TestReplicaSetEstimateFailsOver(t *testing.T) {
	db := bigDB(t, 30, 1)
	dead := NewClient(func(context.Context) (net.Conn, error) {
		return nil, errInjected
	})
	srv := &Server{DB: db}
	live := NewClient(func(context.Context) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		return c1, nil
	})
	set := NewReplicaSet([]*Client{dead, live})
	t.Cleanup(func() { set.Close() })

	set.rr.Store(0)
	est, err := set.Estimate(ctx, bigSQL)
	if err != nil {
		t.Fatal(err)
	}
	if est.Rows <= 0 {
		t.Fatalf("estimate rows = %v, want > 0", est.Rows)
	}
}

func TestReplicaSetFailoverSpliceIsExact(t *testing.T) {
	// Ties at the failover boundary: the continuation opened on the other
	// replica must skip exactly the delivered share of the boundary tie
	// group, same as a reopen on the same replica would.
	db := bigDB(t, 200, 3) // 600 rows, 3 identical rows per key
	killAt := func(at int64) func(string) func(int64) error {
		return func(string) func(int64) error {
			return func(i int64) error {
				if i >= at {
					return errInjected
				}
				return nil
			}
		}
	}
	set, _ := replicaHarness(t, db,
		[]func(string) func(int64) error{killAt(100), nil},
		[]ClientOption{
			WithResume(Resume{MaxResumes: 1}),
		})

	set.rr.Store(0)
	rows, err := set.QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	checkBigRows(t, got, 200, 3)
	if rows.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", rows.Failovers)
	}
}

func TestReplicaSetIdleConnsSumsAndCloses(t *testing.T) {
	db := bigDB(t, 5, 1)
	set, _ := replicaHarness(t, db, make([]func(string) func(int64) error, 2), nil)
	for i := 0; i < 2; i++ {
		rows, err := set.QueryResumable(ctx, bigSQL, nil)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, rows)
	}
	if n := set.IdleConns(); n != 2 {
		t.Fatalf("IdleConns = %d, want 2 (one pooled per replica)", n)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := set.QueryResumable(ctx, bigSQL, nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("query after close: err = %v, want ErrClientClosed", err)
	}
}

func TestReplicaSetErrorsNameTheReplica(t *testing.T) {
	// WithReplicaNames feeds error text; make sure StatsEpoch failures name
	// the replica they probed.
	dead := NewClient(func(context.Context) (net.Conn, error) {
		return nil, errInjected
	})
	set := NewReplicaSet([]*Client{dead}, WithReplicaNames([]string{"db-a:7070"}))
	t.Cleanup(func() { set.Close() })
	_, err := set.StatsEpoch(ctx)
	if err == nil {
		t.Fatal("StatsEpoch succeeded against a dial-refusing replica")
	}
	if want := "db-a:7070"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name %q", err, want)
	}
}

func TestReplicaSetDrainsInFlightAccounting(t *testing.T) {
	db := bigDB(t, 10, 1)
	set, _ := replicaHarness(t, db, make([]func(string) func(int64) error, 2), nil)
	for i := 0; i < 4; i++ {
		rows, err := set.QueryResumable(ctx, bigSQL, nil)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, rows)
	}
	for i, rep := range set.reps {
		if n := rep.inFlight.Load(); n != 0 {
			t.Errorf("replica %d in-flight = %d after all streams drained, want 0", i, n)
		}
	}
}
