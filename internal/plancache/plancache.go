// Package plancache memoizes compiled query plans across materializations.
//
// The paper's middleware re-runs plan selection — for the greedy strategy a
// full search with dozens of cost-estimate round trips to the backend — on
// every request, even when the view and the statistics it was costed against
// have not changed. This cache keys a compiled plan family by (view
// fingerprint, strategy, stats epoch): repeat requests for the same view and
// strategy skip planning entirely, and any write to the database bumps the
// stats epoch so plans compiled against older statistics simply stop
// matching and are re-planned on next use.
package plancache

import (
	"sync"

	"silkroute/internal/obs"
	"silkroute/internal/plan"
)

// Key identifies one cached plan family.
type Key struct {
	// View is the structural fingerprint of the view tree (tags, skolem
	// functions, rules, edges) plus its wrapper/reduce configuration.
	View uint64
	// Strategy is the plan-selection strategy name; the same view planned
	// under different strategies yields different plans.
	Strategy string
	// Epoch is the database's stats epoch at planning time. A write
	// anywhere bumps it, so stale plans never match.
	Epoch int64
}

// Entry is one memoized planning result: the plan itself plus the search
// telemetry the facade reports (greedy mandatory/optional edge counts and
// estimate-request count), so cached hits can fill a Report identically to a
// cold run.
type Entry struct {
	Plan      *plan.Plan
	Mandatory []int
	Optional  []int
	Requests  int64
}

// Cache is a concurrency-safe plan cache. Entries are tiny (a plan is a tree
// reference plus an edge bitmask), so there is no size bound; stale epochs
// are pruned as fresh entries for the same view/strategy arrive.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*Entry
}

// New returns an empty plan cache.
func New() *Cache {
	return &Cache{entries: make(map[Key]*Entry)}
}

// Get returns the entry for k, or nil. It counts the lookup as a plan-cache
// hit or miss on the global metrics sink.
func (c *Cache) Get(k Key) *Entry {
	c.mu.Lock()
	e := c.entries[k]
	c.mu.Unlock()
	if e == nil {
		if m := obs.M(); m != nil {
			m.Cache.PlanMisses.Inc()
		}
		return nil
	}
	if m := obs.M(); m != nil {
		m.Cache.PlanHits.Inc()
	}
	return e
}

// Put stores a planning result and drops any entries for the same view and
// strategy at older epochs — they can never match again.
func (c *Cache) Put(k Key, e *Entry) {
	c.mu.Lock()
	for old := range c.entries {
		if old.View == k.View && old.Strategy == k.Strategy && old.Epoch < k.Epoch {
			delete(c.entries, old)
		}
	}
	c.entries[k] = e
	c.mu.Unlock()
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
