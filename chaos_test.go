package silkroute

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"testing"

	"silkroute/internal/chaos"
	"silkroute/internal/rxl"
)

// startChaosServer serves db with fault injection on a loopback listener
// and returns its address. The server is torn down at test cleanup.
func startChaosServer(t *testing.T, db *DB, spec string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		db.ServeChaosContext(sctx, l, spec)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return l.Addr().String()
}

func chaosSeeds() []string {
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		return strings.Fields(env)
	}
	return []string{"1", "7", "42"}
}

// TestChaosEquivalence is the headline robustness property end to end:
// under seeded fault injection that kills tuple streams at pseudo-random
// rows, a remote materialization with resume enabled produces XML
// byte-identical to the fault-free local run, for every strategy and every
// seed. Extra seeds can be supplied via CHAOS_SEEDS="4 5 6".
func TestChaosEquivalence(t *testing.T) {
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

	anyResumed := false
	for _, seed := range chaosSeeds() {
		// A fresh server per seed: the per-query kill budget resets with it.
		addr := startChaosServer(t, db, "seed="+seed+",cutrowmax=10")
		remote := mustDial(t, Single(addr), WithResume(16))
		rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource, WithResume(16))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strategies {
			var got bytes.Buffer
			rep, err := rv.Materialize(ctx, &got, s)
			if err != nil {
				t.Fatalf("seed %s %s: %v", seed, s, err)
			}
			if got.String() != want[s] {
				t.Errorf("seed %s %s: chaotic document differs from fault-free run (lengths %d vs %d)",
					seed, s, got.Len(), len(want[s]))
			}
			for _, st := range rep.StreamStats {
				if st.Resumes > 0 {
					anyResumed = true
				}
			}
		}
		// An explicit edge bitmask goes through MaterializePlan, the other
		// half of the materialization API.
		var gotBits bytes.Buffer
		rep, err := rv.MaterializePlan(ctx, &gotBits, 0b101)
		if err != nil {
			t.Fatalf("seed %s bitmask: %v", seed, err)
		}
		var wantBits bytes.Buffer
		if _, err := local.MaterializePlan(ctx, &wantBits, 0b101); err != nil {
			t.Fatal(err)
		}
		if gotBits.String() != wantBits.String() {
			t.Errorf("seed %s bitmask: chaotic document differs from fault-free run", seed)
		}
		for _, st := range rep.StreamStats {
			if st.Resumes > 0 {
				anyResumed = true
			}
		}
		remote.Close()
	}
	if !anyResumed {
		t.Error("no stream resumed under any seed; the fault injection never fired")
	}
}

// TestChaosResumeRefetchesOnlySuffix drives the acceptance scenario on the
// single outer-union stream so the query log reads unambiguously: the
// stream (and every distinct continuation) is killed at row 2; the run
// must complete byte-identically, and the engine's query log must show
// every resumed query carrying the key-range predicate and returning
// fewer rows than the original — the suffix, never a full re-fetch.
func TestChaosResumeRefetchesOnlySuffix(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	local, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := local.Materialize(ctx, &want, OuterUnion); err != nil {
		t.Fatal(err)
	}

	addr := startChaosServer(t, db, "cutrow=2")
	remote := mustDial(t, Single(addr), WithResume(8))
	defer remote.Close()
	rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource, WithResume(8))
	if err != nil {
		t.Fatal(err)
	}

	db.EnableQueryLog() // after planning, right before the run we assert on
	var got bytes.Buffer
	rep, err := rv.Materialize(ctx, &got, OuterUnion)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("chaotic document differs from fault-free run (lengths %d vs %d)", got.Len(), want.Len())
	}
	if len(rep.StreamStats) != 1 || rep.StreamStats[0].Resumes == 0 {
		t.Fatalf("StreamStats = %+v, want one stream with resumes", rep.StreamStats)
	}

	// Partition the log: the original stream query (possibly re-logged by
	// the last reopen, which starts from the top) versus the rsm-wrapped
	// continuations of the frontier reopens.
	var original, resumed []QueryLogEntry
	for _, e := range db.QueryLog() {
		if strings.Contains(e.SQL, "rsm") {
			resumed = append(resumed, e)
		} else {
			original = append(original, e)
		}
	}
	if len(original) == 0 || len(resumed) == 0 {
		t.Fatalf("query log: %d original + %d resumed entries, want both kinds", len(original), len(resumed))
	}
	total := original[0].Rows
	for _, e := range resumed {
		if !strings.Contains(e.SQL, "where") {
			t.Errorf("resumed query carries no key-range predicate: %s", e.SQL)
		}
		if e.Rows <= 0 || e.Rows >= total {
			t.Errorf("resumed query returned %d rows, want fewer than the original's %d (suffix only)", e.Rows, total)
		}
	}
	// Continuations advance: later resumes fetch strictly shorter suffixes.
	for i := 1; i < len(resumed); i++ {
		if resumed[i].Rows >= resumed[i-1].Rows {
			t.Errorf("resume %d fetched %d rows, not fewer than the previous resume's %d (frontier did not advance)",
				i+1, resumed[i].Rows, resumed[i-1].Rows)
		}
	}
}

// TestChaosEveryStreamKilledOnce kills every partitioned stream once at
// row 2 and checks the whole plan still comes out byte-identical, with one
// query in the log per reopen the report counts: a suffix query for a
// frontier reopen, or a second run of the original text for the last
// reopen, which starts from the top.
func TestChaosEveryStreamKilledOnce(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	local, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := local.Materialize(ctx, &want, FullyPartitioned); err != nil {
		t.Fatal(err)
	}

	addr := startChaosServer(t, db, "cutrow=2")
	remote := mustDial(t, Single(addr), WithResume(8))
	defer remote.Close()
	rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource, WithResume(8))
	if err != nil {
		t.Fatal(err)
	}

	db.EnableQueryLog()
	var got bytes.Buffer
	rep, err := rv.Materialize(ctx, &got, FullyPartitioned)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("chaotic document differs from fault-free run (lengths %d vs %d)", got.Len(), want.Len())
	}
	totalResumes := 0
	for _, st := range rep.StreamStats {
		totalResumes += st.Resumes
		if st.Rows > 2 && st.Resumes == 0 {
			t.Errorf("stream %q delivered %d rows without a resume; cutrow=2 should have killed it", st.SQL, st.Rows)
		}
	}
	if totalResumes == 0 {
		t.Fatal("no stream resumed")
	}
	reopenEntries := 0
	runs := make(map[string]int)
	for _, e := range db.QueryLog() {
		if strings.Contains(e.SQL, "rsm") {
			reopenEntries++
			if !strings.Contains(e.SQL, "where") {
				t.Errorf("resumed query carries no key-range predicate: %s", e.SQL)
			}
		} else if runs[e.SQL]++; runs[e.SQL] > 1 {
			reopenEntries++
		}
	}
	if reopenEntries != totalResumes {
		t.Errorf("query log holds %d reopen queries, report counts %d resumes", reopenEntries, totalResumes)
	}
}

// TestChaosFailsClosedWithoutResume: the same faults with resume disabled
// must fail with the typed stream-lost error — a truncated document must
// be impossible to mistake for success.
func TestChaosFailsClosedWithoutResume(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	addr := startChaosServer(t, db, "cutrow=2")
	remote := mustDial(t, Single(addr))
	defer remote.Close()
	rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := rv.Materialize(ctx, &got, FullyPartitioned); !errors.Is(err, ErrStreamLost) {
		t.Fatalf("err = %v, want ErrStreamLost", err)
	}
}

// TestChaosClientSideDialFaults exercises the client half of the harness:
// a dialer that refuses every other attempt, wrapped by the same injector
// the -chaos flag uses. A failed open is not retried, so the view fails
// closed: every run either equals the fault-free document or fails with
// the injected refusal and writes nothing.
func TestChaosClientSideDialFaults(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go db.Serve(l)

	local, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := local.Materialize(ctx, &want, FullyPartitioned); err != nil {
		t.Fatal(err)
	}

	in := chaos.New(chaos.Spec{RefuseDialEvery: 2})
	var d net.Dialer
	flaky := in.WrapDial(func(dctx context.Context) (net.Conn, error) {
		return d.DialContext(dctx, "tcp", l.Addr().String())
	})
	remote := mustDial(t, SingleFunc(flaky))
	defer remote.Close()
	rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for run := 0; run < 6; run++ {
		var got bytes.Buffer
		_, err := rv.Materialize(ctx, &got, FullyPartitioned)
		switch {
		case err == nil && got.String() != want.String():
			t.Errorf("run %d: document under dial faults differs from fault-free run", run)
		case err != nil && !errors.Is(err, chaos.ErrInjected):
			t.Errorf("run %d: err = %v, want the injected dial refusal", run, err)
		case err != nil && got.Len() != 0:
			t.Errorf("run %d: failed run wrote %d bytes; want none", run, got.Len())
		case err != nil:
			failed++
		}
	}
	if failed == 0 {
		t.Error("no run failed; the refused dials never surfaced")
	}
}
