package silkroute

import (
	"context"
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"time"

	"silkroute/internal/fragcache"
	"silkroute/internal/obs"
	"silkroute/internal/plan"
	"silkroute/internal/plancache"
	"silkroute/internal/viewtree"
)

// WithPlanCache memoizes compiled plans on the view's backend (the DB or
// Remote), keyed by view fingerprint, strategy, and the database's stats
// epoch. Repeat materializations of the same view skip planning entirely —
// for Greedy, the whole search and its estimate requests. Any write to the
// database bumps the epoch, so plans compiled against stale statistics are
// re-planned on next use. View option.
func WithPlanCache() Option {
	return func(c *config) { c.planCache = true }
}

// WithFragmentCache caches materialized XML on the view's backend under the
// given byte budget (<= 0 means unbounded), evicting least-recently-used
// documents. Warm materializations are served straight from memory,
// byte-identical to a cold run. Each request stamps the data's freshness
// once — the write versions of the tables the view reads locally, a
// stats-epoch probe remotely — and a cached document whose stamp no longer
// matches is dropped and re-materialized. A failed or killed
// materialization never populates the cache. View option.
func WithFragmentCache(maxBytes int64) Option {
	return func(c *config) { c.fragCache, c.fragBytes = true, maxBytes }
}

// caches holds a backend's shared plan and fragment caches, each built on
// first use. DB and Remote each own one, so every view sharing a backend
// shares its caches.
type caches struct {
	mu    sync.Mutex
	plans *plancache.Cache
	frags *fragcache.Cache
}

// plan returns the backend's plan cache, creating it on first use.
func (c *caches) plan() *plancache.Cache {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.plans == nil {
		c.plans = plancache.New()
	}
	return c.plans
}

// fragment returns the backend's fragment cache, creating it on first use;
// the first caller's byte budget wins.
func (c *caches) fragment(maxBytes int64) *fragcache.Cache {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.frags == nil {
		c.frags = fragcache.New(maxBytes)
	}
	return c.frags
}

// fingerprint hashes everything that determines the view's compiled form
// and its output bytes: the wrapper element, the reduction flag, and every
// node (tag, Skolem name and index, the full datalog rule — which carries
// the WHERE conditions structure alone would miss — arguments, and
// contents) plus every edge. Strategy is deliberately excluded: all
// strategies produce byte-identical documents, so one fragment entry serves
// them all (the plan cache adds strategy to its own key). Every input is
// fixed at construction, so config.apply computes it once, into View.key.
func (v *View) fingerprint() uint64 {
	h := fnv.New64a()
	ws := func(parts ...string) {
		for _, s := range parts {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	ws("wrapper", v.wrapper, "reduce", strconv.FormatBool(v.reduce))
	for _, n := range v.tree.Nodes {
		ws("node", n.SkolemName, n.Tag, viewtree.SFIString(n.SFI))
		if n.Rule != nil {
			ws(n.Rule.String())
		}
		for _, a := range n.Args() {
			ws(a.Q())
		}
		for _, c := range n.Contents {
			if c.IsConst {
				ws("const", c.Const.Text())
			} else {
				ws("ref", c.Ref.Q())
			}
		}
	}
	for _, e := range v.tree.Edges {
		ws("edge", e.Parent.Tag, e.Child.Tag, e.Label().String())
	}
	return h.Sum64()
}

// stamp snapshots the freshness of the view's data once per request, before
// anything runs: the write versions of the view's base tables (and the
// database's stats epoch) locally, one stats-epoch probe remotely. ok=false
// when use is false — no cache of the request would read the stamp — or
// when the remote probe failed; the caller then skips every cache step
// (a cache shortcut is never worth serving stale or failing the request).
func (v *View) stamp(ctx context.Context, use bool) (fragcache.Stamp, bool) {
	if !use {
		return fragcache.Stamp{}, false
	}
	if v.remote != nil {
		e, err := v.remote.client.StatsEpoch(ctx)
		if err != nil {
			// Cold runs forced by a failed probe are a distinct signal from
			// ordinary misses: the caches are degraded, not merely cold.
			if m := obs.M(); m != nil {
				m.Cache.ProbeFailures.Inc()
			}
			return fragcache.Stamp{}, false
		}
		return fragcache.Stamp{Epoch: e}, true
	}
	st := fragcache.Stamp{Epoch: v.db.eng.StatsEpoch(), Versions: make([]int64, len(v.tables))}
	for i, t := range v.tables {
		st.Versions[i] = v.db.eng.TableVersion(t)
	}
	return st, true
}

// serveCached tries to answer a materialization from the fragment cache,
// checking the entry against the request's stamp st (fresh=false: the
// stamp could not be taken, so nothing is served). served reports whether
// the response was written (successfully or not); when false the caller
// must run cold. A stale entry is invalidated and counted as a miss; a
// mid-write error is the caller's error — the bytes already reached w.
func (v *View) serveCached(ctx context.Context, w io.Writer, s Strategy, st fragcache.Stamp, fresh bool) (*Report, bool, error) {
	if v.frags == nil {
		return nil, false, nil
	}
	_, span := obs.StartSpan(ctx, "cache.fragment.lookup")
	defer span.End()
	e := v.frags.Get(v.key)
	if e == nil || !fresh {
		// No entry, or the epoch probe failed and freshness cannot be
		// proved: run cold. An entry stays — the next probe may succeed.
		if m := obs.M(); m != nil {
			m.Cache.FragmentMisses.Inc()
		}
		return nil, false, nil
	}
	if !e.Stamp.Fresh(st) {
		v.frags.Invalidate(v.key)
		if m := obs.M(); m != nil {
			m.Cache.FragmentMisses.Inc()
		}
		return nil, false, nil
	}
	if m := obs.M(); m != nil {
		m.Cache.FragmentHits.Inc()
	}
	start := time.Now()
	if _, err := e.WriteTo(w); err != nil {
		return nil, true, err
	}
	d := time.Since(start)
	return &Report{Strategy: s, FragmentCached: true, TotalTime: d}, true, nil
}

// cachedPlan wraps planCold with the plan cache: a hit skips planning (and
// for Greedy the entire search), a miss plans cold and stores the result
// under the epoch of the request's stamp, taken before planning began.
// fresh=false (no stamp) plans cold and caches nothing.
func (v *View) cachedPlan(ctx context.Context, s Strategy, st fragcache.Stamp, fresh bool) (*plan.Plan, *Report, error) {
	if v.plans == nil || !fresh {
		return v.planCold(ctx, s)
	}
	key := plancache.Key{View: v.key, Strategy: s.String(), Epoch: st.Epoch}
	if e := v.plans.Get(key); e != nil {
		rep := &Report{Strategy: s, PlanCached: true}
		rep.GreedyMandatory = append([]int(nil), e.Mandatory...)
		rep.GreedyOptional = append([]int(nil), e.Optional...)
		rep.EstimateRequests = e.Requests
		return e.Plan, rep, nil
	}
	p, rep, err := v.planCold(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	v.plans.Put(key, &plancache.Entry{
		Plan:      p,
		Mandatory: append([]int(nil), rep.GreedyMandatory...),
		Optional:  append([]int(nil), rep.GreedyOptional...),
		Requests:  rep.EstimateRequests,
	})
	return p, rep, err
}
