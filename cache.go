package silkroute

import (
	"context"
	"hash/fnv"
	"io"
	"strconv"
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
// byte-identical to a cold run; base-table writes invalidate dependent
// entries (locally via write hooks, remotely via a stats-epoch probe per
// request). A failed or killed materialization never populates the cache.
// View option.
func WithFragmentCache(maxBytes int64) Option {
	return func(c *config) { c.fragCache, c.fragBytes = true, maxBytes }
}

// planCache lazily creates the DB's shared plan cache.
func (db *DB) planCache() *plancache.Cache {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	if db.plans == nil {
		db.plans = plancache.New()
	}
	return db.plans
}

// fragCache lazily creates the DB's shared fragment cache and hooks it into
// the engine's write path, so every insert — facade, CSV load, generator —
// invalidates dependent fragments immediately. The first caller's byte
// budget wins.
func (db *DB) fragCache(maxBytes int64) *fragcache.Cache {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	if db.frags == nil {
		cache := fragcache.New(maxBytes)
		db.eng.RegisterWriteHook(func(table string) { cache.InvalidateTable(table) })
		db.frags = cache
	}
	return db.frags
}

// planCache lazily creates the Remote's shared plan cache.
func (r *Remote) planCache() *plancache.Cache {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if r.plans == nil {
		r.plans = plancache.New()
	}
	return r.plans
}

// fragCache lazily creates the Remote's shared fragment cache. There are no
// write hooks across the wire: freshness is validated per request with a
// stats-epoch probe instead.
func (r *Remote) fragCache(maxBytes int64) *fragcache.Cache {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if r.frags == nil {
		r.frags = fragcache.New(maxBytes)
	}
	return r.frags
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

// statsEpoch returns the backend's current stats epoch. For a remote view
// this is one wire round trip; ok=false means the probe failed and the
// caller must take the cold path (a cache shortcut is never worth serving
// stale or failing the request).
func (v *View) statsEpoch(ctx context.Context) (int64, bool) {
	if v.remote != nil {
		e, err := v.remote.client.StatsEpoch(ctx)
		if err != nil {
			// Cold runs forced by a failed probe are a distinct signal from
			// ordinary misses: the caches are degraded, not merely cold.
			if m := obs.M(); m != nil {
				m.Cache.ProbeFailures.Inc()
			}
			return 0, false
		}
		return e, true
	}
	return v.db.eng.StatsEpoch(), true
}

// currentStamp snapshots the freshness of the given base tables right now:
// per-table write versions locally, the global stats epoch remotely.
func (v *View) currentStamp(ctx context.Context, tables []string) (fragcache.Stamp, bool) {
	if v.remote != nil {
		e, err := v.remote.client.StatsEpoch(ctx)
		if err != nil {
			if m := obs.M(); m != nil {
				m.Cache.ProbeFailures.Inc()
			}
			return fragcache.Stamp{}, false
		}
		return fragcache.Stamp{Epoch: e}, true
	}
	st := fragcache.Stamp{Epoch: v.db.eng.StatsEpoch(), Versions: make([]int64, len(tables))}
	for i, t := range tables {
		st.Versions[i] = v.db.eng.TableVersion(t)
	}
	return st, true
}

// serveCached tries to answer a materialization from the fragment cache.
// served reports whether the response was written (successfully or not);
// when false the caller must run cold. A stale entry is invalidated and
// counted as a miss; a mid-write error is the caller's error — the bytes
// already reached w.
func (v *View) serveCached(ctx context.Context, w io.Writer, s Strategy) (*Report, bool, error) {
	if v.frags == nil {
		return nil, false, nil
	}
	_, span := obs.StartSpan(ctx, "cache.fragment.lookup")
	defer span.End()
	e := v.frags.Get(v.key)
	if e == nil {
		if m := obs.M(); m != nil {
			m.Cache.FragmentMisses.Inc()
		}
		return nil, false, nil
	}
	cur, ok := v.currentStamp(ctx, e.Tables)
	if !ok {
		// Epoch probe failed: cannot prove freshness, run cold. The entry
		// stays — the next probe may succeed.
		if m := obs.M(); m != nil {
			m.Cache.FragmentMisses.Inc()
		}
		return nil, false, nil
	}
	if !e.Stamp.Fresh(cur) {
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
// under the epoch observed before planning began.
func (v *View) cachedPlan(ctx context.Context, s Strategy) (*plan.Plan, *Report, error) {
	if v.plans == nil {
		return v.planCold(ctx, s)
	}
	epoch, ok := v.statsEpoch(ctx)
	if !ok {
		return v.planCold(ctx, s)
	}
	key := plancache.Key{View: v.key, Strategy: s.String(), Epoch: epoch}
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
