package plan

import (
	"bytes"
	"slices"
	"testing"

	"silkroute/internal/engine"
	"silkroute/internal/obs"
	"silkroute/internal/rxl"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
)

func greedySetup(t *testing.T, src string) (*viewtree.Tree, *engine.Database) {
	t.Helper()
	db := tpch.Generate(0.002, 42)
	q, err := rxl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return tree, db
}

func TestGreedyCutsStarEdgesAndMergesOneEdges(t *testing.T) {
	tree, db := greedySetup(t, rxl.Query1Source)
	res, err := Greedy(ctx, db, tree, DefaultGreedyParams(true))
	if err != nil {
		t.Fatal(err)
	}
	chosen := make(map[int]bool)
	for _, e := range append(append([]int{}, res.Mandatory...), res.Optional...) {
		chosen[e] = true
	}
	for _, e := range tree.Edges {
		if e.Label() == viewtree.One && !chosen[e.Index] {
			t.Errorf("greedy left 1-labeled edge %d (%s→%s) uncontracted",
				e.Index, e.Parent.Tag, e.Child.Tag)
		}
		if e.Label() == viewtree.ZeroOrMore && chosen[e.Index] {
			t.Errorf("greedy contracted *-labeled edge %d (%s→%s)",
				e.Index, e.Parent.Tag, e.Child.Tag)
		}
	}
	// The resulting plan splits at the two '*' edges: three streams.
	if got := res.BestPlan(tree).NumStreams(); got != 3 {
		t.Errorf("best plan has %d streams, want 3", got)
	}
}

func TestGreedyQuery2(t *testing.T) {
	tree, db := greedySetup(t, rxl.Query2Source)
	res, err := Greedy(ctx, db, tree, DefaultGreedyParams(true))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.BestPlan(tree).NumStreams(); got != 3 {
		t.Errorf("best plan has %d streams, want 3 (supplier group, part group, order group)", got)
	}
}

func TestGreedyGolden(t *testing.T) {
	// The search's outcome and its estimate economy, pinned: the chosen
	// edges, the §5.1 request count and the cost-cache hits. Every
	// componentCost call is either a request or a hit, so the two together
	// also pin how many candidates the search costs.
	cases := []struct {
		scale               float64
		name, src           string
		reduce              bool
		mandatory, optional []int
		requests, hits      int64
	}{
		{0.001, "Q1", rxl.Query1Source, false, []int{0, 2, 3}, []int{1}, 31, 74},
		{0.001, "Q1", rxl.Query1Source, true, []int{0, 1, 2, 4, 6, 7, 8}, nil, 33, 99},
		{0.001, "Q2", rxl.Query2Source, false, []int{0, 2, 3, 4}, []int{1}, 43, 74},
		{0.001, "Q2", rxl.Query2Source, true, []int{0, 1, 2, 5, 6, 7, 8}, nil, 35, 97},
		{0.002, "Q1", rxl.Query1Source, false, []int{0, 2, 3}, []int{1}, 31, 74},
		{0.002, "Q1", rxl.Query1Source, true, []int{0, 1, 2, 4, 6, 7, 8}, nil, 33, 99},
		{0.002, "Q2", rxl.Query2Source, false, []int{0, 2, 3, 4}, []int{1}, 43, 74},
		{0.002, "Q2", rxl.Query2Source, true, []int{0, 1, 2, 5, 6, 7, 8}, nil, 35, 97},
	}
	dbs := map[float64]*engine.Database{}
	for _, c := range cases {
		db := dbs[c.scale]
		if db == nil {
			db = tpch.Generate(c.scale, 42)
			dbs[c.scale] = db
		}
		tree := buildTree(t, db, c.src)
		m := obs.NewMetrics()
		prev := obs.M()
		obs.SetGlobal(m)
		res, err := Greedy(ctx, db, tree, DefaultGreedyParams(c.reduce))
		obs.SetGlobal(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Mandatory, c.mandatory) || !slices.Equal(res.Optional, c.optional) {
			t.Errorf("%s scale=%v reduce=%v: mandatory %v optional %v, want %v %v",
				c.name, c.scale, c.reduce, res.Mandatory, res.Optional, c.mandatory, c.optional)
		}
		if res.Requests != c.requests {
			t.Errorf("%s scale=%v reduce=%v: %d estimate requests, want %d", c.name, c.scale, c.reduce, res.Requests, c.requests)
		}
		if got := m.Planner.CacheHits.Value(); got != c.hits {
			t.Errorf("%s scale=%v reduce=%v: %d cost-cache hits, want %d", c.name, c.scale, c.reduce, got, c.hits)
		}
	}
}

func TestGreedyAllocs(t *testing.T) {
	// One search of each Fig. 18 view at scale 0.001, with its allocation
	// count when the ceiling was set. The ceiling is that count plus 3 %;
	// a fall of more than 5 % is logged so the constant can be lowered.
	if testing.Short() {
		t.Skip("allocation count in -short mode")
	}
	db := tpch.Generate(0.001, 42)
	for _, c := range []struct {
		name, src string
		reduce    bool
		allocs    float64
	}{
		{"Q1", rxl.Query1Source, false, 1_429},
		{"Q1-reduced", rxl.Query1Source, true, 1_327},
		{"Q2", rxl.Query2Source, false, 2_101},
		{"Q2-reduced", rxl.Query2Source, true, 1_413},
	} {
		t.Run(c.name, func(t *testing.T) {
			tree := buildTree(t, db, c.src)
			prm := DefaultGreedyParams(c.reduce)
			prm.Parallelism = 1
			got := testing.AllocsPerRun(20, func() {
				if _, err := Greedy(ctx, db, tree, prm); err != nil {
					t.Fatal(err)
				}
			})
			ceiling := c.allocs * 1.03
			t.Logf("greedy search allocates %.0f times, figure %.0f", got, c.allocs)
			if got > ceiling {
				t.Errorf("greedy search allocates %.0f times, ceiling %.0f", got, ceiling)
			} else if got < c.allocs*0.95 {
				t.Logf("greedy search allocates %.0f times, more than 5 %% under %.0f: lower it", got, c.allocs)
			}
		})
	}
}

func TestGreedyEstimateRequestEconomy(t *testing.T) {
	// §5.1: the search needs far fewer estimate requests than the
	// O(|E|²) = 81 worst case thanks to per-query cost caching. The paper
	// measured 22 (non-reduced) and 25 (reduced).
	for _, reduce := range []bool{false, true} {
		tree, db := greedySetup(t, rxl.Query1Source)
		res, err := Greedy(ctx, db, tree, DefaultGreedyParams(reduce))
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests >= 81 {
			t.Errorf("reduce=%v: %d estimate requests, want < 81", reduce, res.Requests)
		}
		if res.Requests < 10 {
			t.Errorf("reduce=%v: %d requests is implausibly few", reduce, res.Requests)
		}
	}
}

func TestGreedyParallelismInvariant(t *testing.T) {
	// The parallel candidate evaluation must not change what the search
	// selects, nor the §5.1 request count: the singleflight cache sends
	// each distinct candidate query to the oracle exactly once at any
	// worker count.
	for _, reduce := range []bool{false, true} {
		tree, db := greedySetup(t, rxl.Query1Source)
		serialPrm := DefaultGreedyParams(reduce)
		serialPrm.Parallelism = 1
		serial, err := Greedy(ctx, db, tree, serialPrm)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 8} {
			prm := DefaultGreedyParams(reduce)
			prm.Parallelism = par
			got, err := Greedy(ctx, db, tree, prm)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got.Mandatory, serial.Mandatory) || !equalInts(got.Optional, serial.Optional) {
				t.Errorf("reduce=%v par=%d: edges diverge: mandatory %v/%v optional %v/%v",
					reduce, par, got.Mandatory, serial.Mandatory, got.Optional, serial.Optional)
			}
			if got.Requests != serial.Requests {
				t.Errorf("reduce=%v par=%d: %d estimate requests, serial made %d",
					reduce, par, got.Requests, serial.Requests)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGreedyPlanFamilyEnumeration(t *testing.T) {
	tree, db := greedySetup(t, rxl.Query1Source)
	prm := DefaultGreedyParams(true)
	// Raise the mandatory threshold so the marginal shallow merges fall
	// into the optional band, reproducing the mandatory+optional structure
	// of Fig. 18. (The test database is SF 0.002; relative costs scale
	// with data size.)
	prm.T1 = -40_000
	res, err := Greedy(ctx, db, tree, prm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Optional) == 0 {
		t.Fatal("widened T2 produced no optional edges")
	}
	plans := res.Plans(tree)
	if len(plans) != 1<<uint(len(res.Optional)) {
		t.Fatalf("family size = %d, want 2^%d", len(plans), len(res.Optional))
	}
	// Every family member keeps all mandatory edges.
	for _, p := range plans {
		for _, e := range res.Mandatory {
			if !p.Keep[e] {
				t.Fatal("family member drops a mandatory edge")
			}
		}
	}
}

func TestGreedyPlansProduceCorrectXML(t *testing.T) {
	tree, db := greedySetup(t, rxl.Query1Source)
	reference, _ := runPlan(t, db, Unified(tree, false))
	res, err := Greedy(ctx, db, tree, DefaultGreedyParams(true))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ExecuteDirect(ctx, db, res.BestPlan(tree), &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != reference {
		t.Error("greedy plan document differs from unified reference")
	}
}

// TestGreedyBestPlanBeatsExtremes is the headline claim in the planner's
// own terms: the greedy best plan's estimated objective — Σ over its
// streams of A·Cost + B·Rows·Width, as the engine's optimizer estimates
// each stream — is below both the unified outer-union's and the fully
// partitioned plan's, for Query 1 and Query 2. At Config-A scale the fully
// partitioned plan is genuinely competitive (the paper's own Fig. 13(a)
// shows the same), so compare at a scale where the separation is robust.
// The estimates are deterministic; the wall-clock claim is measured by
// cmd/experiments -exp sec2 and the benchmark's plan.greedy_gain.
func TestGreedyBestPlanBeatsExtremes(t *testing.T) {
	db := tpch.Generate(0.005, 42)
	prm := DefaultGreedyParams(true)
	for _, src := range []struct{ name, text string }{{"Q1", rxl.Query1Source}, {"Q2", rxl.Query2Source}} {
		q, err := rxl.Parse(src.text)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := viewtree.Build(q, db.Schema)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Greedy(ctx, db, tree, prm)
		if err != nil {
			t.Fatal(err)
		}
		objective := func(p *Plan) float64 {
			streams, err := p.Streams()
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, s := range streams {
				est, err := db.EstimateQuery(ctx, s.Query)
				if err != nil {
					t.Fatal(err)
				}
				sum += prm.A*est.Cost + prm.B*est.DataSize()
			}
			return sum
		}
		greedy := objective(res.BestPlan(tree))
		outerUnion := objective(UnifiedOuterUnion(tree, true))
		parted := objective(FullyPartitioned(tree))
		t.Logf("%s: greedy %.3g, outer-union %.3g, fully partitioned %.3g", src.name, greedy, outerUnion, parted)
		if greedy >= outerUnion {
			t.Errorf("%s: greedy objective %.3g not below outer-union's %.3g", src.name, greedy, outerUnion)
		}
		if greedy >= parted {
			t.Errorf("%s: greedy objective %.3g not below fully partitioned's %.3g", src.name, greedy, parted)
		}
	}
}
