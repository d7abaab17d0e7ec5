package silkroute

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"silkroute/internal/obs"
	"silkroute/internal/rxl"
)

// TestReplicaEquivalenceMatrix is the headline failover property end to
// end: for 1, 2, and 3 replicas of the same database, across the chaos
// seed matrix and the strategy family, the materialized document is
// byte-identical to the fault-free local run — including when one replica
// is hard-killed (every stream and every continuation it serves dies),
// which forces live streams to fail over mid-flight to a healthy replica
// and splice invisibly. Extra seeds via CHAOS_SEEDS="4 5 6".
func TestReplicaEquivalenceMatrix(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	local, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Strategy{OuterUnion, FullyPartitioned, Greedy}
	want := make(map[Strategy]string)
	for _, s := range strategies {
		var buf bytes.Buffer
		if _, err := local.Materialize(ctx, &buf, s); err != nil {
			t.Fatal(err)
		}
		want[s] = buf.String()
	}

	anyFailedOver := false
	for _, n := range []int{1, 2, 3} {
		for _, seed := range chaosSeeds() {
			// Replica 0 is hard-dead under fault injection: a huge kill
			// budget means every stream AND every resumed continuation it
			// serves is cut within 10 rows, so only cross-replica failover
			// can finish a stream that lands there. The other replicas run
			// clean. With a single "replica" there is nobody to fail over
			// to, so the kill budget is survivable by resume alone — that
			// leg proves a one-address Replicas topology degrades to plain resume.
			addrs := make([]string, n)
			for i := range addrs {
				spec := ""
				switch {
				case n == 1:
					spec = "seed=" + seed + ",cutrowmax=10"
				case i == 0:
					spec = "seed=" + seed + ",cutrowmax=10,kills=1000000"
				}
				addrs[i] = startChaosServer(t, db, spec)
			}
			resumes := 2
			if n == 1 {
				resumes = 16
			}
			opts := []Option{WithResume(resumes)}
			remote := mustDial(t, Replicas(addrs...), opts...)
			rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range strategies {
				var got bytes.Buffer
				rep, err := rv.Materialize(ctx, &got, s)
				if err != nil {
					t.Fatalf("replicas=%d seed=%s %s: %v", n, seed, s, err)
				}
				if got.String() != want[s] {
					t.Errorf("replicas=%d seed=%s %s: document differs from fault-free run (lengths %d vs %d)",
						n, seed, s, got.Len(), len(want[s]))
				}
				failovers := 0
				for _, st := range rep.PerStream {
					failovers += st.Failovers
				}
				if failovers > 0 {
					anyFailedOver = true
					if n == 1 {
						t.Errorf("replicas=1 seed=%s %s: reported %d failovers with nowhere to fail over to",
							seed, s, failovers)
					}
				}
			}
			remote.Close()
		}
	}
	if !anyFailedOver {
		t.Error("no stream failed over under any seed; the hard-killed replica never forced a failover")
	}
}

// TestMaterializeFailsClosedWhenBreakerOpen pins the breaker's facade
// contract: once the circuit is open, a materialization fails fast with an
// errors.Is-able silkroute.ErrCircuitOpen and writes NOTHING — no document
// prefix, no partial XML — because the failure precedes the first stream.
func TestMaterializeFailsClosedWhenBreakerOpen(t *testing.T) {
	remote := mustDial(t, SingleFunc(func(context.Context) (net.Conn, error) {
		return nil, errors.New("refused")
	}),
		WithBreaker(1, time.Minute))
	defer remote.Close()
	rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}

	// First run fails on the dial itself and opens the breaker.
	var first bytes.Buffer
	if _, err := rv.Materialize(ctx, &first, OuterUnion); err == nil {
		t.Fatal("materialize succeeded against a dial-refusing backend")
	}
	if first.Len() != 0 {
		t.Errorf("failed run wrote %d bytes; want none", first.Len())
	}

	// Second run must fail fast and typed, with the output untouched.
	var out bytes.Buffer
	_, err = rv.Materialize(ctx, &out, OuterUnion)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want errors.Is(err, ErrCircuitOpen)", err)
	}
	if out.Len() != 0 {
		t.Errorf("open-breaker run wrote %d bytes of partial XML; want none", out.Len())
	}
}

// probeKiller fails every stats-epoch probe (a request goes out as one
// Write: 4-byte length, then the op byte — 'P' for the probe) while passing
// queries through untouched — a backend that answers data but not
// freshness probes.
type probeKiller struct{ net.Conn }

func (c probeKiller) Write(p []byte) (int, error) {
	if len(p) > 4 && p[4] == 'P' {
		c.Conn.Close()
		return 0, errors.New("probe refused")
	}
	return c.Conn.Write(p)
}

// TestFragmentProbeFailureIsCounted pins the satellite fix: a failed
// remote stats-epoch probe forces a silent cold run — correct, but
// previously indistinguishable from an ordinary miss. It must now
// increment cache.fragment.probe_failures (and its Prometheus series)
// while the materialization itself still succeeds.
func TestFragmentProbeFailureIsCounted(t *testing.T) {
	prev := obs.M()
	sink := obs.NewMetrics()
	obs.SetGlobal(sink)
	t.Cleanup(func() { obs.SetGlobal(prev) })

	db := OpenTPCH(0.001, 42)
	local, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := local.Materialize(ctx, &want, OuterUnion); err != nil {
		t.Fatal(err)
	}

	addr := startChaosServer(t, db, "")
	remote := mustDial(t, SingleFunc(func(dctx context.Context) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(dctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return probeKiller{conn}, nil
	}))
	defer remote.Close()
	rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource, WithFragmentCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		var got bytes.Buffer
		rep, err := rv.Materialize(ctx, &got, OuterUnion)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if rep.FragmentCached {
			t.Errorf("run %d served from cache despite failing probes", run)
		}
		if got.String() != want.String() {
			t.Errorf("run %d: degraded-probe document differs from local run", run)
		}
	}
	if n := sink.Cache.ProbeFailures.Value(); n != 2 {
		t.Errorf("probe failure counter = %d, want 2 (one per degraded run)", n)
	}
	var b strings.Builder
	sink.WritePrometheus(&b)
	if !strings.Contains(b.String(), "silkroute_cache_fragment_probe_failures_total") {
		t.Error("probe failures missing from Prometheus exposition")
	}
}

// probeCounter counts the stats-epoch probes sent over a connection (a
// request goes out as one Write: 4-byte length, then the op byte — 'P' for
// the probe) and passes everything through.
type probeCounter struct {
	net.Conn
	n *atomic.Int64
}

func (c probeCounter) Write(p []byte) (int, error) {
	if len(p) > 4 && p[4] == 'P' {
		c.n.Add(1)
	}
	return c.Conn.Write(p)
}

// TestCacheRemoteEpochProbes pins the freshness cost of a remote view with
// both caches: one stamp per request, so a cold materialization probes the
// epoch twice (at the start, and to revalidate the fill at commit) and a
// fragment-cache hit once.
func TestCacheRemoteEpochProbes(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	addr := startChaosServer(t, db, "")
	var probes atomic.Int64
	remote := mustDial(t, SingleFunc(func(dctx context.Context) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(dctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return probeCounter{conn, &probes}, nil
	}))
	defer remote.Close()
	rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource,
		WithPlanCache(), WithFragmentCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		cached bool
		probes int64
	}{{false, 2}, {true, 1}} {
		probes.Store(0)
		rep, err := rv.Materialize(ctx, io.Discard, OuterUnion)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FragmentCached != want.cached {
			t.Fatalf("FragmentCached = %v, want %v", rep.FragmentCached, want.cached)
		}
		if n := probes.Load(); n != want.probes {
			t.Errorf("materialization (cached %v) sent %d epoch probes, want %d", want.cached, n, want.probes)
		}
	}
}
