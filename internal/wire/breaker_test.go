package wire

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

const nationSQL = "select n.nationkey, n.name from Nation n order by n.nationkey"

func TestBreakerOpensAfterThreshold(t *testing.T) {
	var dials atomic.Int64
	client := NewClient(func(context.Context) (net.Conn, error) {
		dials.Add(1)
		return nil, errors.New("connection refused")
	}, WithBreaker(Breaker{Threshold: 3, Cooldown: time.Hour}))
	defer client.Close()

	for i := 0; i < 3; i++ {
		_, err := client.QueryResumable(ctx, nationSQL, nil)
		if err == nil {
			t.Fatal("query against a dead dialer succeeded")
		}
		if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("request %d: breaker opened before the threshold: %v", i+1, err)
		}
	}
	// The threshold is reached: subsequent requests fail fast without
	// touching the dialer.
	_, err := client.QueryResumable(ctx, nationSQL, nil)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if got := dials.Load(); got != 3 {
		t.Errorf("dial attempts = %d, want 3 (open breaker must not dial)", got)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	db := wireDB(t)
	srv := &Server{DB: db}
	var fail atomic.Bool
	fail.Store(true)
	var dials atomic.Int64
	const cooldown = 30 * time.Millisecond
	client := NewClient(func(context.Context) (net.Conn, error) {
		dials.Add(1)
		if fail.Load() {
			return nil, errors.New("connection refused")
		}
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		return c1, nil
	}, WithBreaker(Breaker{Threshold: 1, Cooldown: cooldown}))
	defer client.Close()

	if _, err := client.QueryResumable(ctx, nationSQL, nil); err == nil {
		t.Fatal("query against a dead dialer succeeded")
	}
	if _, err := client.QueryResumable(ctx, nationSQL, nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen while open", err)
	}

	// After the cooldown a single probe is admitted; it fails against the
	// still-dead server, re-opening the breaker for another cooldown.
	time.Sleep(cooldown + 10*time.Millisecond)
	before := dials.Load()
	if _, err := client.QueryResumable(ctx, nationSQL, nil); errors.Is(err, ErrCircuitOpen) {
		t.Fatal("half-open probe was not admitted after cooldown")
	}
	if dials.Load() != before+1 {
		t.Fatalf("probe did not dial: %d dials, want %d", dials.Load(), before+1)
	}
	if _, err := client.QueryResumable(ctx, nationSQL, nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("failed probe must re-open the breaker")
	}

	// Server recovers: the next probe succeeds and closes the breaker.
	time.Sleep(cooldown + 10*time.Millisecond)
	fail.Store(false)
	rows, err := client.QueryResumable(ctx, nationSQL, nil)
	if err != nil {
		t.Fatalf("probe against recovered server: %v", err)
	}
	drain(t, rows)
	// Closed again: requests flow without cooldown waits.
	rows, err = client.QueryResumable(ctx, nationSQL, nil)
	if err != nil {
		t.Fatalf("query after breaker closed: %v", err)
	}
	drain(t, rows)
}

func TestBreakerCleanSQLErrorIsSuccess(t *testing.T) {
	// A well-formed server error ('E' frame) proves the server is healthy;
	// it must not trip the breaker.
	client := InProcess(wireDB(t), WithBreaker(Breaker{Threshold: 1, Cooldown: time.Hour}))
	defer client.Close()
	if _, err := client.QueryResumable(ctx, "select g.x from Ghost g", nil); err == nil {
		t.Fatal("query on unknown table succeeded")
	}
	rows, err := client.QueryResumable(ctx, nationSQL, nil)
	if err != nil {
		t.Fatalf("query after clean SQL error: %v (breaker must stay closed)", err)
	}
	drain(t, rows)
}

func TestBackoffDelayDoublesAndCaps(t *testing.T) {
	want := []time.Duration{
		10 * time.Millisecond, // first reopen of an episode
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		160 * time.Millisecond,
		320 * time.Millisecond,
		640 * time.Millisecond,
		time.Second, // 1.28s capped
		time.Second, // stays at the cap
	}
	for i, w := range want {
		if got := backoffDelay(i + 1); got != w {
			t.Errorf("backoffDelay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Far past the point where doubling would overflow int64, the delay
	// stays at the cap, so jitter never sees a negative bound.
	if got := backoffDelay(1000); got != time.Second {
		t.Errorf("backoffDelay(1000) = %v, want 1s", got)
	}
	if got := jitter(backoffDelay(1000)); got < time.Second/2 || got > time.Second {
		t.Errorf("jitter(backoffDelay(1000)) = %v, want within [500ms, 1s]", got)
	}
}

func TestJitterBounds(t *testing.T) {
	// The documented contract: jitter(d) is uniform in [d/2, d] — full
	// jitter on the upper half.
	for _, d := range []time.Duration{1, 2, 10 * time.Millisecond, time.Second} {
		lo, hi := d, time.Duration(0)
		for i := 0; i < 300; i++ {
			j := jitter(d)
			if j < d/2 || j > d {
				t.Fatalf("jitter(%v) = %v, outside [%v, %v]", d, j, d/2, d)
			}
			if j < lo {
				lo = j
			}
			if j > hi {
				hi = j
			}
		}
		if d >= 10*time.Millisecond && lo == hi {
			t.Errorf("jitter(%v) returned a constant %v over 300 samples", d, lo)
		}
	}
}

// TestBreakerHalfOpenAdmitsExactlyOneProbe races many goroutines against
// one half-open breaker: exactly one must win the probe token, everyone
// else must fail fast with ErrCircuitOpen. Run under -race, this also
// proves the token handoff itself is data-race free.
func TestBreakerHalfOpenAdmitsExactlyOneProbe(t *testing.T) {
	c := NewClient(func(context.Context) (net.Conn, error) {
		return nil, errors.New("refused")
	}, WithBreaker(Breaker{Threshold: 1, Cooldown: time.Minute}))
	defer c.Close()

	c.brMu.Lock()
	c.setBreakerState(breakerHalfOpen)
	c.brMu.Unlock()

	const racers = 64
	var admitted, rejected atomic.Int64
	start := make(chan struct{})
	done := make(chan struct{}, racers)
	for i := 0; i < racers; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			<-start
			switch err := c.breakerAllow(); {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrCircuitOpen):
				rejected.Add(1)
			default:
				t.Errorf("breakerAllow = %v, want nil or ErrCircuitOpen", err)
			}
		}()
	}
	close(start)
	for i := 0; i < racers; i++ {
		<-done
	}
	if admitted.Load() != 1 {
		t.Fatalf("half-open breaker admitted %d probes, want exactly 1", admitted.Load())
	}
	if rejected.Load() != racers-1 {
		t.Fatalf("rejected = %d, want %d", rejected.Load(), racers-1)
	}

	// The winner's outcome decides for everyone: a neutral end returns the
	// token, so the next caller may probe again.
	c.breakerDone(breakerNeutral)
	if err := c.breakerAllow(); err != nil {
		t.Fatalf("probe token not returned after neutral outcome: %v", err)
	}
	c.breakerDone(breakerFailure)
	if err := c.breakerAllow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("failed probe must re-open the breaker, got %v", err)
	}
}
