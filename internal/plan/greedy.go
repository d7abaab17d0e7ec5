package plan

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"silkroute/internal/engine"
	"silkroute/internal/fanout"
	"silkroute/internal/obs"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlgen"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

// Oracle answers cost-estimate requests: the paper's "only reliable source
// of query costs is the target RDBMS". A local engine.Database implements
// it directly; RemoteOracle reaches a database behind the wire protocol —
// the context carries the planning deadline across that network hop.
type Oracle interface {
	EstimateQuery(ctx context.Context, q sqlast.Query) (engine.Estimate, error)
}

// RemoteOracle adapts a wire client into an Oracle, sending each candidate
// query's SQL to the remote optimizer.
type RemoteOracle struct {
	Client wire.Backend
}

// EstimateQuery implements Oracle over the wire protocol.
func (r RemoteOracle) EstimateQuery(ctx context.Context, q sqlast.Query) (engine.Estimate, error) {
	return r.Client.Estimate(ctx, sqlast.Print(q))
}

// GreedyParams configures the §5 plan-generation algorithm. The cost of a
// candidate query q is
//
//	cost(q) = A·evaluation_cost(q) + B·data_size(q)
//
// with both terms supplied by the target database's estimate oracle. An
// edge whose relative cost (combined minus separate) is below T1 becomes
// mandatory; below T2, optional. The paper used A=100, B=1, T1=-60000,
// T2=6000 against its commercial optimizer's units; DefaultGreedyParams
// holds the values calibrated against this repository's engine.
type GreedyParams struct {
	A, B   float64
	T1, T2 float64
	Reduce bool
	Style  sqlgen.Style
	// Parallelism bounds how many candidate edges are costed concurrently
	// within one greedy iteration. <=0 means runtime.GOMAXPROCS(0); 1 is
	// strictly serial. The oracle must tolerate concurrent EstimateQuery
	// calls when this exceeds 1 (both the local engine and RemoteOracle
	// do). The singleflight cost cache keeps the §5.1 estimate-request
	// count identical at every parallelism level: each distinct candidate
	// query reaches the oracle exactly once.
	Parallelism int
}

// DefaultGreedyParams returns the calibrated parameters, analogous to the
// single setting the paper used for every experiment.
func DefaultGreedyParams(reduce bool) GreedyParams {
	return GreedyParams{A: 100, B: 1, T1: -4000, T2: 6000, Reduce: reduce, Style: sqlgen.OuterJoin}
}

// GreedyResult is the outcome of the greedy search: a set of mandatory
// edges (always kept) and optional edges (each subset of which defines one
// near-optimal plan — 2^|Optional| plans in total).
type GreedyResult struct {
	Params    GreedyParams
	Mandatory []int // view-tree edge indices
	Optional  []int
	// Requests counts the cost-estimate calls made to the database during
	// the search (§5.1 reports 22–25 against a worst case of 81).
	Requests int64
}

// Plans enumerates the plan family: mandatory edges plus every subset of
// the optional edges.
func (r *GreedyResult) Plans(t *viewtree.Tree) []*Plan {
	n := len(r.Optional)
	out := make([]*Plan, 0, 1<<uint(n))
	for bits := 0; bits < 1<<uint(n); bits++ {
		keep := make([]bool, len(t.Edges))
		for _, e := range r.Mandatory {
			keep[e] = true
		}
		for i, e := range r.Optional {
			if bits&(1<<uint(i)) != 0 {
				keep[e] = true
			}
		}
		out = append(out, &Plan{Tree: t, Keep: keep, Reduce: r.Params.Reduce, Style: r.Params.Style})
	}
	return out
}

// BestPlan returns the family's representative plan: mandatory plus all
// optional edges.
func (r *GreedyResult) BestPlan(t *viewtree.Tree) *Plan {
	keep := make([]bool, len(t.Edges))
	for _, e := range r.Mandatory {
		keep[e] = true
	}
	for _, e := range r.Optional {
		keep[e] = true
	}
	return &Plan{Tree: t, Keep: keep, Reduce: r.Params.Reduce, Style: r.Params.Style, Wrapper: "document"}
}

// costEntry is one singleflight cache slot: the first goroutine to reach a
// candidate query computes its estimate under once; everyone else waits and
// reuses the result (including an error — a failed estimate is not retried,
// matching the serial algorithm's fail-fast behaviour).
type costEntry struct {
	once sync.Once
	cost float64
	err  error
}

// Greedy runs the paper's genPlan algorithm (Fig. 17): repeatedly estimate
// the relative cost of every remaining edge — the cost of evaluating the
// two incident queries combined minus the sum of their separate costs —
// and greedily contract the cheapest edge while it qualifies under the
// thresholds. Cost estimates are cached per candidate query, so the
// number of oracle requests stays far below the O(|E|²) bound.
//
// A candidate is named by its node set, read off one labelling of the
// nodes per iteration, so costing a candidate the cache already holds
// builds nothing. Only a miss builds the candidate's one component, its
// SQL and its estimate request.
//
// Within each iteration the remaining edges are costed concurrently under
// prm.Parallelism workers. Edge selection scans relative costs in edge
// order, so the chosen plan family and the request count are independent
// of scheduling.
//
// Cancelling ctx stops the search between edge costings (and, through the
// oracle, inside any in-flight remote estimate request).
func Greedy(ctx context.Context, oracle Oracle, t *viewtree.Tree, prm GreedyParams) (*GreedyResult, error) {
	if m := obs.M(); m != nil {
		m.Planner.Searches.Inc()
	}
	ctx, span := obs.StartSpan(ctx, "plan.greedy")
	defer span.End()
	res := &GreedyResult{Params: prm}
	contracted := make([]bool, len(t.Edges))

	var requests atomic.Int64
	var cacheMu sync.Mutex
	// The cost cache is keyed by a candidate's node set, a bitset over node
	// indices. In a tree a connected node set determines its internal edges
	// (every edge between two members must be kept, or the set would not be
	// connected), so the set alone names the query, and a key costs no
	// partitioning. Only a miss builds the component.
	costCache := make(map[string]*costEntry)
	keyLen := (len(t.Nodes) + 7) / 8

	// componentCost estimates the cost of the single query evaluating the
	// component that contains seed under the contracted edges plus, when
	// extra >= 0, edge extra. roots labels every node with its component's
	// root under the contracted edges alone.
	componentCost := func(roots []int, seed *viewtree.Node, extra int) (float64, error) {
		a, b := roots[seed.Index], -1
		if extra >= 0 {
			b = roots[t.Edges[extra].Child.Index]
		}
		var stack [32]byte // trees of up to 256 nodes key without allocating
		key := stack[:min(keyLen, len(stack))]
		if keyLen > len(stack) {
			key = make([]byte, keyLen)
		}
		for i, r := range roots {
			if r == a || r == b {
				key[i/8] |= 1 << (i % 8)
			}
		}
		cacheMu.Lock()
		entry, ok := costCache[string(key)]
		if !ok {
			entry = &costEntry{}
			costCache[string(key)] = entry
		}
		cacheMu.Unlock()
		if ok {
			// Another costing already owns this candidate query; the oracle
			// will be asked at most once regardless of who wins the race.
			if m := obs.M(); m != nil {
				m.Planner.CacheHits.Inc()
			}
		}
		entry.once.Do(func() {
			keep := contracted
			if extra >= 0 {
				keep = slices.Clone(contracted)
				keep[extra] = true
			}
			comp, err := t.Component(keep, seed, prm.Reduce)
			if err != nil {
				entry.err = err
				return
			}
			streams, err := sqlgen.Generate(t, []*viewtree.Component{comp}, prm.Style)
			if err != nil {
				entry.err = err
				return
			}
			est, err := oracle.EstimateQuery(ctx, streams[0].Query)
			if err != nil {
				entry.err = err
				return
			}
			requests.Add(1)
			if m := obs.M(); m != nil {
				m.Planner.EstimateRequests.Inc()
			}
			entry.cost = prm.A*est.Cost + prm.B*est.DataSize()
		})
		return entry.cost, entry.err
	}

	// evalEdge computes one edge's relative cost: combined query minus the
	// two separate incident queries.
	evalEdge := func(roots []int, ei int) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		e := t.Edges[ei]
		q1, err := componentCost(roots, e.Parent, -1)
		if err != nil {
			return 0, err
		}
		q2, err := componentCost(roots, e.Child, -1)
		if err != nil {
			return 0, err
		}
		qc, err := componentCost(roots, e.Parent, ei)
		if err != nil {
			return 0, err
		}
		return qc - (q1 + q2), nil
	}

	// Each iteration's remaining edges, relative costs and errors reuse
	// these, sized for the first iteration, the largest.
	remainingBuf := make([]int, 0, len(t.Edges))
	relsBuf := make([]float64, len(t.Edges))
	errsBuf := make([]error, len(t.Edges))
	for {
		remaining := remainingBuf[:0]
		for ei := range t.Edges {
			if !contracted[ei] {
				remaining = append(remaining, ei)
			}
		}
		if len(remaining) == 0 {
			break
		}
		roots, err := t.ComponentRoots(contracted)
		if err != nil {
			return nil, err
		}
		rels, errs := relsBuf[:len(remaining)], errsBuf[:len(remaining)]
		fanout.Each(len(remaining), prm.Parallelism, func(i int) {
			rels[i], errs[i] = evalEdge(roots, remaining[i])
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		bestEdge := -1
		bestCost := 0.0
		for i, ei := range remaining {
			if bestEdge < 0 || rels[i] < bestCost {
				bestEdge = ei
				bestCost = rels[i]
			}
		}
		if bestEdge < 0 || bestCost >= prm.T2 {
			break
		}
		if bestCost < prm.T1 {
			res.Mandatory = append(res.Mandatory, bestEdge)
		} else {
			res.Optional = append(res.Optional, bestEdge)
		}
		contracted[bestEdge] = true
	}
	res.Requests = requests.Load()
	sort.Ints(res.Mandatory)
	sort.Ints(res.Optional)
	return res, nil
}
