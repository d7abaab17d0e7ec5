package silkroute

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"

	"silkroute/internal/obs"
	"silkroute/internal/rxl"
)

// cacheLibrarySchema is the library schema plus an Archive relation no view
// reads, for proving that writes to unrelated tables leave the fragment
// cache warm.
func cacheLibrarySchema(t *testing.T) *Schema {
	t.Helper()
	s := librarySchema(t)
	if err := s.AddRelation("Archive", []string{"id"},
		"id", Int, "note", String); err != nil {
		t.Fatal(err)
	}
	return s
}

func cacheLibraryDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(cacheLibrarySchema(t))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("Author", 1, "Ada", 0.15))
	must(db.Insert("Author", 2, "Blaise", nil))
	must(db.Insert("Book", 10, 1, "Engines"))
	must(db.Insert("Book", 11, 1, "Notes"))
	return db
}

// TestCachedEquivalenceAllStrategies is the caching layer's correctness
// gate (`make test-race` runs it under the race detector): for every
// strategy family — and the explicit-bitmask
// path — a fully cached view produces bytes identical to an uncached one,
// both on the cold fill and on the warm repeat.
func TestCachedEquivalenceAllStrategies(t *testing.T) {
	for _, s := range []Strategy{Unified, UnifiedCTE, OuterUnion, FullyPartitioned, Greedy} {
		// A fresh database per strategy so each family exercises its own
		// cold fill (the fragment key is strategy-independent by design, so
		// a shared cache would serve every later strategy warm).
		db := cacheLibraryDB(t)
		plain, err := ParseView(db, libraryView)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := plain.Materialize(ctx, &want, s); err != nil {
			t.Fatalf("%s uncached: %v", s, err)
		}

		cached, err := ParseView(db, libraryView, WithPlanCache(), WithFragmentCache(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		var cold bytes.Buffer
		rep, err := cached.Materialize(ctx, &cold, s)
		if err != nil {
			t.Fatalf("%s cold: %v", s, err)
		}
		if rep.FragmentCached {
			t.Fatalf("%s cold run claims a fragment hit", s)
		}
		if cold.String() != want.String() {
			t.Errorf("%s cold: cached fill differs from uncached run", s)
		}
		var warm bytes.Buffer
		rep, err = cached.Materialize(ctx, &warm, s)
		if err != nil {
			t.Fatalf("%s warm: %v", s, err)
		}
		if !rep.FragmentCached {
			t.Errorf("%s warm run missed the fragment cache", s)
		}
		if rep.Streams != 0 || len(rep.SQL) != 0 {
			t.Errorf("%s warm run reports %d streams, %d SQL — a fragment hit runs no queries", s, rep.Streams, len(rep.SQL))
		}
		if warm.String() != want.String() {
			t.Errorf("%s warm: cached bytes differ from uncached run", s)
		}
	}

	// The explicit-bitmask path: same cold/warm byte-identity.
	db := cacheLibraryDB(t)
	plain, err := ParseView(db, libraryView)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := plain.MaterializePlan(ctx, &want, 0b1); err != nil {
		t.Fatal(err)
	}
	cached, err := ParseView(db, libraryView, WithPlanCache(), WithFragmentCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	var cold, warm bytes.Buffer
	if _, err := cached.MaterializePlan(ctx, &cold, 0b1); err != nil {
		t.Fatal(err)
	}
	rep, err := cached.MaterializePlan(ctx, &warm, 0b1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FragmentCached {
		t.Error("warm bitmask run missed the fragment cache")
	}
	if cold.String() != want.String() || warm.String() != want.String() {
		t.Error("bitmask: cached bytes differ from uncached run")
	}
}

// TestPlanCacheSkipsGreedySearch pins the plan cache's whole point: the
// second greedy materialization runs zero searches and zero estimate
// requests, asserted on the planner's own obs counters.
func TestPlanCacheSkipsGreedySearch(t *testing.T) {
	old := obs.M()
	m := obs.NewMetrics()
	obs.SetGlobal(m)
	t.Cleanup(func() { obs.SetGlobal(old) })

	db := cacheLibraryDB(t)
	v, err := ParseView(db, libraryView, WithPlanCache())
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	rep, err := v.Materialize(ctx, &first, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanCached {
		t.Fatal("first run claims a plan hit")
	}
	coldMand := append([]int(nil), rep.GreedyMandatory...)
	coldOpt := append([]int(nil), rep.GreedyOptional...)
	coldEst := rep.EstimateRequests
	searches := m.Planner.Searches.Value()
	if searches == 0 {
		t.Fatal("first greedy run recorded no planner search")
	}
	estimates := m.Planner.EstimateRequests.Value()

	var second bytes.Buffer
	rep, err = v.Materialize(ctx, &second, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PlanCached {
		t.Error("second run missed the plan cache")
	}
	if got := m.Planner.Searches.Value(); got != searches {
		t.Errorf("second run ran %d more searches; a plan hit must skip the search", got-searches)
	}
	if got := m.Planner.EstimateRequests.Value(); got != estimates {
		t.Errorf("second run issued %d more estimate requests", got-estimates)
	}
	if m.Cache.PlanHits.Value() != 1 || m.Cache.PlanMisses.Value() != 1 {
		t.Errorf("plan cache counters hits=%d misses=%d, want 1/1",
			m.Cache.PlanHits.Value(), m.Cache.PlanMisses.Value())
	}
	if second.String() != first.String() {
		t.Error("plan-cached run produced different bytes")
	}
	// The greedy telemetry must survive the cache so Explain and reports
	// stay truthful on hits.
	if !reflect.DeepEqual(rep.GreedyMandatory, coldMand) ||
		!reflect.DeepEqual(rep.GreedyOptional, coldOpt) ||
		rep.EstimateRequests != coldEst {
		t.Errorf("plan hit lost the greedy telemetry: got %v/%v/%d, want %v/%v/%d",
			rep.GreedyMandatory, rep.GreedyOptional, rep.EstimateRequests,
			coldMand, coldOpt, coldEst)
	}
}

// TestFragmentCacheWriteInvalidation: a base-table write between two
// materializations always yields fresh bytes, while a write to a table the
// view never reads leaves the entry warm.
func TestFragmentCacheWriteInvalidation(t *testing.T) {
	old := obs.M()
	m := obs.NewMetrics()
	obs.SetGlobal(m)
	t.Cleanup(func() { obs.SetGlobal(old) })

	db := cacheLibraryDB(t)
	v, err := ParseView(db, libraryView, WithPlanCache(), WithFragmentCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	warmUp := func() string {
		t.Helper()
		var buf bytes.Buffer
		if _, err := v.Materialize(ctx, &buf, OuterUnion); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	before := warmUp()

	// Write to a table the view reads: the next lookup's stamp check must
	// drop the entry.
	if err := db.Insert("Book", 12, 2, "Pensees"); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	rep, err := v.Materialize(ctx, &after, OuterUnion)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FragmentCached {
		t.Fatal("materialization after a base-table write was served from cache")
	}
	if after.String() == before {
		t.Fatal("bytes unchanged after insert — stale document")
	}
	if !bytes.Contains(after.Bytes(), []byte("Pensees")) {
		t.Error("fresh run is missing the inserted row")
	}
	if m.Cache.FragmentInvalidations.Value() == 0 {
		t.Error("no invalidation recorded for the dependent-table write")
	}

	// Warm it again, then write to the unrelated Archive table: per-table
	// versions keep the entry fresh even though the global epoch moved.
	fresh := warmUp()
	if err := db.Insert("Archive", 1, "unrelated"); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	rep, err = v.Materialize(ctx, &again, OuterUnion)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FragmentCached {
		t.Error("write to an unrelated table evicted the fragment entry")
	}
	if again.String() != fresh {
		t.Error("warm bytes differ after unrelated write")
	}
}

// TestCacheHammerConcurrentWrites is the -race differential hammer:
// concurrent cached materializations race interleaved base-table writes,
// and every response is compared byte-for-byte against an uncached run over
// the same snapshot. The engine forbids writes concurrent with queries, so
// a RWMutex serializes writers against the readers — which still leaves the
// cache's own fill/invalidate/serve races fully exposed across readers.
func TestCacheHammerConcurrentWrites(t *testing.T) {
	db := cacheLibraryDB(t)
	cached, err := ParseView(db, libraryView, WithPlanCache(), WithFragmentCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ParseView(db, libraryView)
	if err != nil {
		t.Fatal(err)
	}

	var data sync.RWMutex
	var wg sync.WaitGroup
	const readers, iters, writes = 4, 8, 12
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				data.RLock()
				var want, got bytes.Buffer
				_, werr := plain.Materialize(ctx, &want, OuterUnion)
				_, gerr := cached.Materialize(ctx, &got, OuterUnion)
				data.RUnlock()
				if werr != nil || gerr != nil {
					t.Errorf("materialize: %v / %v", werr, gerr)
					return
				}
				if got.String() != want.String() {
					t.Error("cached response differs from uncached run over the same data — stale bytes served")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			data.Lock()
			err := db.Insert("Book", 100+i, 1+i%2, "Vol")
			data.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestChaosCachedEquivalence composes both cache levels with the PR 5
// resilience machinery under the chaos seed matrix: streams are killed at
// pseudo-random rows and spliced back by resume, and both the cold fill and
// the warm repeat must stay byte-identical to the fault-free local run.
func TestChaosCachedEquivalence(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	local, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := local.Materialize(ctx, &want, OuterUnion); err != nil {
		t.Fatal(err)
	}

	for _, seed := range chaosSeeds() {
		addr := startChaosServer(t, db, "seed="+seed+",cutrowmax=10")
		remote := mustDial(t, Single(addr), WithResume(16))
		rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource,
			WithResume(16), WithPlanCache(), WithFragmentCache(1<<24))
		if err != nil {
			t.Fatal(err)
		}
		var cold bytes.Buffer
		if _, err := rv.Materialize(ctx, &cold, OuterUnion); err != nil {
			t.Fatalf("seed %s cold: %v", seed, err)
		}
		if cold.String() != want.String() {
			t.Errorf("seed %s: cold cached run differs from fault-free local run", seed)
		}
		var warm bytes.Buffer
		rep, err := rv.Materialize(ctx, &warm, OuterUnion)
		if err != nil {
			t.Fatalf("seed %s warm: %v", seed, err)
		}
		if !rep.FragmentCached {
			t.Errorf("seed %s: warm run missed the fragment cache", seed)
		}
		if warm.String() != want.String() {
			t.Errorf("seed %s: warm cached run differs from fault-free local run", seed)
		}
		remote.Close()
	}
}

// TestChaosNeverCachesPartialFragment: with resume disabled, a mid-stream
// kill fails the materialization — and must leave NOTHING in the fragment
// cache. A partial fragment served later would turn a loud failure into
// silent truncation, the exact failure mode the fail-closed rule forbids.
func TestChaosNeverCachesPartialFragment(t *testing.T) {
	for _, seed := range chaosSeeds() {
		old := obs.M()
		m := obs.NewMetrics()
		obs.SetGlobal(m)

		db := OpenTPCH(0.001, 42)
		// kills=64 renews the injector's per-query-text kill budget, so the
		// second attempt's identical SQL is killed again: without that, a
		// clean re-run would mask a partial fragment served from cache.
		addr := startChaosServer(t, db, "seed="+seed+",cutrow=2,kills=64")
		remote := mustDial(t, Single(addr))
		rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource,
			WithFragmentCache(1<<24))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if _, err := rv.Materialize(ctx, &got, FullyPartitioned); !errors.Is(err, ErrStreamLost) {
			t.Fatalf("seed %s: err = %v, want ErrStreamLost", seed, err)
		}
		if n := m.Cache.FragmentBytes.Value(); n != 0 {
			t.Errorf("seed %s: failed run left %d bytes in the fragment cache", seed, n)
		}
		// A second attempt must fail the same way — not "succeed" by
		// serving a truncated document out of the cache.
		if _, err := rv.Materialize(ctx, io.Discard, FullyPartitioned); !errors.Is(err, ErrStreamLost) {
			t.Errorf("seed %s: second attempt err = %v, want ErrStreamLost", seed, err)
		}
		if n := m.Cache.FragmentHits.Value(); n != 0 {
			t.Errorf("seed %s: %d fragment hits after only failed runs", seed, n)
		}
		remote.Close()
		obs.SetGlobal(old)
	}
}

// TestRemoteWriteInvalidation: a remote view's freshness rides on the wire
// stats-epoch probe. A server-side insert between two
// materializations must yield fresh bytes; a further repeat re-warms.
func TestRemoteWriteInvalidation(t *testing.T) {
	db := cacheLibraryDB(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	go db.Serve(l)

	remote := mustDial(t, Single(l.Addr().String()))
	defer remote.Close()
	rv, err := ParseRemoteView(remote, cacheLibrarySchema(t), libraryView,
		WithPlanCache(), WithFragmentCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if _, err := rv.Materialize(ctx, &first, OuterUnion); err != nil {
		t.Fatal(err)
	}
	var warm bytes.Buffer
	rep, err := rv.Materialize(ctx, &warm, OuterUnion)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FragmentCached {
		t.Fatal("repeat run missed the fragment cache")
	}

	// Server-side write: the epoch probe must catch it on the next request.
	if err := db.Insert("Book", 13, 2, "Provinciales"); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	rep, err = rv.Materialize(ctx, &after, OuterUnion)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FragmentCached {
		t.Fatal("materialization after a server-side write was served from cache")
	}
	if !bytes.Contains(after.Bytes(), []byte("Provinciales")) {
		t.Error("fresh run is missing the inserted row")
	}
	rep, err = rv.Materialize(ctx, io.Discard, OuterUnion)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FragmentCached {
		t.Error("cache did not re-warm after the invalidating write")
	}
}
