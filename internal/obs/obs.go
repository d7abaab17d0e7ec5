// Package obs is SilkRoute's observability layer: dependency-free metrics
// (atomic counters, gauges, ring-buffered latency histograms) and
// lightweight tracing (spans with parent/child links and a trace ID that
// rides the wire protocol), exposed over a Prometheus-text /metrics
// endpoint.
//
// The paper's contribution is an empirical argument — plan families are
// chosen by *measuring* per-query cost and cardinality (§5) — so the
// middleware must be able to report what it measured, per layer and per
// stream, not just two summed durations. This package is that report.
//
// Design constraints:
//
//   - Dependency-free: only the standard library, so the middleware's
//     "black box" posture toward the target database (and toward any
//     vendored telemetry stack) is preserved.
//   - Nil sink is free: observability is off by default. Every recording
//     method on *Metrics is safe on a nil receiver and compiles down to a
//     nil check, and instrumented hot loops accumulate locally and record
//     once per operator, so the row hot path gains zero allocations and
//     effectively zero time.
//   - Global by default: like Prometheus's default registry, one
//     process-global *Metrics is shared by every layer once Enable is
//     called. Tests that need isolation swap it with SetGlobal.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic value that can go up and down (in-flight requests,
// pool occupancy).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histRing bounds a Histogram's sample memory: quantiles are computed over
// the most recent histRing observations (a sliding window), while count
// and sum stay exact over the full lifetime.
const histRing = 512

// Histogram records durations (or any int64 samples) into a fixed ring
// buffer and reports p50/p95/p99 over the retained window. Count and Sum
// are lifetime-exact; the quantiles are over the last histRing samples,
// which is what a scrape wants: recent latency, not the since-boot mix.
type Histogram struct {
	mu  sync.Mutex
	buf [histRing]int64
	n   int64 // lifetime observation count
	sum int64 // lifetime sum
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.buf[h.n%histRing] = v
	h.n++
	h.sum += v
	h.mu.Unlock()
}

// ObserveSince records the elapsed nanoseconds since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// Count returns the lifetime number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the lifetime sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantiles returns the requested quantiles (0 < q <= 1) over the retained
// window, nearest-rank. With no observations every quantile is zero.
func (h *Histogram) Quantiles(qs ...float64) []int64 {
	out := make([]int64, len(qs))
	if h == nil {
		return out
	}
	h.mu.Lock()
	n := h.n
	if n > histRing {
		n = histRing
	}
	window := make([]int64, n)
	copy(window, h.buf[:n])
	h.mu.Unlock()
	if len(window) == 0 {
		return out
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	for i, q := range qs {
		rank := int(q*float64(len(window))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(window) {
			rank = len(window) - 1
		}
		out[i] = window[rank]
	}
	return out
}

// PlannerMetrics covers the greedy plan search (§5).
type PlannerMetrics struct {
	// Searches counts greedy searches run.
	Searches Counter
	// EstimateRequests counts cost-estimate requests issued to the oracle —
	// the live version of §5.1's "number of cost requests".
	EstimateRequests Counter
	// CacheHits counts candidate queries answered by the singleflight
	// estimate cache instead of the oracle.
	CacheHits Counter
}

// ExecMetrics covers the SQL executor's operator loops and the engine
// around them.
type ExecMetrics struct {
	// Queries counts SQL statements executed by the engine.
	Queries Counter
	// QuerySeconds is the engine-side execution latency (ns samples,
	// exported in seconds).
	QuerySeconds Histogram
	// RowsScanned counts rows read out of base-table scans.
	RowsScanned Counter
	// RowsJoined counts rows produced by join operators.
	RowsJoined Counter
	// RowsSorted counts rows passed through ORDER BY sorts.
	RowsSorted Counter
	// SortSpills counts external-sort runs spilled to disk.
	SortSpills Counter
	// EstimatesServed counts optimizer estimate requests the engine
	// answered (the server-side twin of PlannerMetrics.EstimateRequests).
	EstimatesServed Counter
}

// TaggerMetrics covers the XML integration-and-tagging stage.
type TaggerMetrics struct {
	// Documents counts materialized documents.
	Documents Counter
	// Elements counts XML elements emitted.
	Elements Counter
	// Bytes counts XML bytes written (post-escaping).
	Bytes Counter
}

// ClientMetrics covers the wire client.
type ClientMetrics struct {
	// Requests counts logical requests (queries + estimates) submitted.
	Requests Counter
	// Dials counts fresh connections dialed.
	Dials Counter
	// PoolHits counts requests served from the idle-connection pool.
	PoolHits Counter
	// Retries counts retry attempts after transient pre-stream failures.
	Retries Counter
	// InFlight is the number of requests currently outstanding.
	InFlight Gauge
	// DeadlineExceeded counts requests that hit a deadline (context or
	// per-request timeout).
	DeadlineExceeded Counter
	// StaleConns counts pooled connections evicted by the liveness check
	// (peer closed them while they sat idle).
	StaleConns Counter
	// Resumes counts mid-stream resume attempts (a started stream died and
	// the client spliced in a key-range continuation).
	Resumes Counter
	// StreamsLost counts started streams that died unrecoverably (resume
	// disabled, not armed, or budget exhausted).
	StreamsLost Counter
	// BreakerOpens counts circuit-breaker open transitions.
	BreakerOpens Counter
	// BreakerState is the current breaker state: 0 closed, 1 half-open,
	// 2 open.
	BreakerState Gauge
	// Failovers counts cross-replica failovers: a live stream's reopen
	// that moved it to a different replica than the one it died on.
	Failovers Counter
	// Hedges counts hedged opens: the primary replica had not answered
	// within the hedge delay, so a second replica was raced.
	Hedges Counter
	// NoHealthyReplica counts balancer picks that failed closed because
	// every replica was open-circuit.
	NoHealthyReplica Counter
	// BudgetExpired counts requests refused client-side before any
	// connection was acquired because their propagated deadline budget had
	// already run out — work the caller could no longer use, shed at zero
	// cost instead of opening a doomed backend stream.
	BudgetExpired Counter
	// Replicas is the configured replica count of the most recent
	// ReplicaSet (0 when running single-backend).
	Replicas Gauge
	// ReplicasHealthy is how many replicas the balancer currently
	// considers usable (breaker closed or probing).
	ReplicasHealthy Gauge
	// Shards is the configured shard count of the most recent ShardSet
	// (0 when running unsharded).
	Shards Gauge
	// ScatterStreams counts per-shard partial streams opened by scatter
	// queries: one sharded stream over n shards opens n of these.
	ScatterStreams Counter
	// ShardMergeSeconds is the wall-clock latency of sharded k-way
	// merges, from scatter open until the merged stream drained.
	ShardMergeSeconds Histogram
}

// CacheMetrics covers the middleware's two-level cache: the plan cache
// (compiled plan families keyed by view/strategy/stats-epoch) and the
// fragment cache (materialized XML under a byte budget).
type CacheMetrics struct {
	// PlanHits counts plan requests answered by the plan cache — each one a
	// skipped planning pass (for Greedy, a skipped search and all of its
	// estimate requests).
	PlanHits Counter
	// PlanMisses counts plan-cache lookups that fell through to planning.
	PlanMisses Counter
	// FragmentHits counts materializations served whole from the fragment
	// cache: no planning, no SQL, no tagging.
	FragmentHits Counter
	// FragmentMisses counts fragment-cache lookups that fell through to a
	// cold run (absent entries and entries discarded as stale).
	FragmentMisses Counter
	// FragmentEvictions counts entries evicted to respect the byte budget.
	FragmentEvictions Counter
	// FragmentInvalidations counts entries dropped by write invalidation
	// (base-table writes through the reverse index, or staleness detected
	// at serve time).
	FragmentInvalidations Counter
	// FragmentBytes is the fragment cache's current size in bytes (the
	// cache_bytes gauge).
	FragmentBytes Gauge
	// ProbeFailures counts remote stats-epoch probes that failed, forcing
	// a cold run. Without this counter a degraded remote revalidation path
	// is indistinguishable from an ordinary cache miss.
	ProbeFailures Counter
}

// ViewSeries is one registered view's share of the HTTP view service:
// request count, failures, in-flight streams, and latency. Entries are
// created on first use and live for the process lifetime (view registries
// are small — tens of views, not millions of keys).
type ViewSeries struct {
	// Requests counts view materializations requested over HTTP.
	Requests Counter
	// Errors counts requests that failed after admission (plan, execution,
	// or mid-stream write failures; 4xx lookup misses are not errors).
	Errors Counter
	// InFlight is the number of responses currently streaming.
	InFlight Gauge
	// Bytes counts response bytes streamed for this view.
	Bytes Counter
	// Latency is the end-to-end request latency (ns samples, exported in
	// seconds).
	Latency Histogram
}

// TenantSeries is one tenant's share of the HTTP view service: admitted
// requests, quota rejections, in-flight streams, and streamed bytes.
// Entries are created on first use and live for the process lifetime
// (tenant tables are small — a handful of configured identities plus a
// default bucket, not millions of keys).
type TenantSeries struct {
	// Requests counts view requests admitted for this tenant.
	Requests Counter
	// Rejected counts requests refused by this tenant's own quota (429:
	// token bucket empty or concurrency quota full).
	Rejected Counter
	// InFlight is the number of this tenant's responses currently
	// streaming.
	InFlight Gauge
	// Bytes counts response bytes streamed for this tenant.
	Bytes Counter
}

// HTTPMetrics covers the multi-tenant HTTP view service (silkrouted): the
// server-wide admission picture plus one labeled series per view and per
// tenant.
type HTTPMetrics struct {
	// Requests counts HTTP view requests accepted for service.
	Requests Counter
	// Rejected counts requests refused by admission control (503 +
	// Retry-After: the concurrency semaphore was saturated).
	Rejected Counter
	// RejectedTenant counts requests refused by a per-tenant quota (429 +
	// Retry-After: the tenant's token bucket was empty or its concurrency
	// quota full) — shed before they could touch the global semaphore.
	RejectedTenant Counter
	// BudgetExpired counts requests refused at admission because the
	// client-declared deadline budget had already run out (504 without
	// occupying a slot).
	BudgetExpired Counter
	// StaleServes counts responses served from a stale fragment-cache
	// entry because every backend replica was unhealthy (the
	// Silkroute-Stale: true degradation path).
	StaleServes Counter
	// Reloads counts view/topology files hot-reloaded from the view dir.
	Reloads Counter
	// ReloadErrors counts hot-reload attempts that failed (the previous
	// binding stays in service).
	ReloadErrors Counter
	// InFlight is the number of view responses currently streaming.
	InFlight Gauge
	// Sessions counts sessions opened over the process lifetime.
	Sessions Counter

	// views maps view name → *ViewSeries, created on first touch.
	views sync.Map
	// tenants maps tenant name → *TenantSeries, created on first touch.
	tenants sync.Map
}

// View returns the named view's series, creating it on first use. Safe on
// a nil receiver (returns nil, whose methods are all no-ops).
func (h *HTTPMetrics) View(name string) *ViewSeries {
	if h == nil {
		return nil
	}
	if s, ok := h.views.Load(name); ok {
		return s.(*ViewSeries)
	}
	s, _ := h.views.LoadOrStore(name, &ViewSeries{})
	return s.(*ViewSeries)
}

// EachView calls fn for every view series, in lexical name order.
func (h *HTTPMetrics) EachView(fn func(name string, s *ViewSeries)) {
	if h == nil {
		return
	}
	var names []string
	h.views.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	for _, n := range names {
		if s, ok := h.views.Load(n); ok {
			fn(n, s.(*ViewSeries))
		}
	}
}

// Tenant returns the named tenant's series, creating it on first use.
// Safe on a nil receiver (returns nil, whose methods are all no-ops).
func (h *HTTPMetrics) Tenant(name string) *TenantSeries {
	if h == nil {
		return nil
	}
	if s, ok := h.tenants.Load(name); ok {
		return s.(*TenantSeries)
	}
	s, _ := h.tenants.LoadOrStore(name, &TenantSeries{})
	return s.(*TenantSeries)
}

// EachTenant calls fn for every tenant series, in lexical name order.
func (h *HTTPMetrics) EachTenant(fn func(name string, s *TenantSeries)) {
	if h == nil {
		return
	}
	var names []string
	h.tenants.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	for _, n := range names {
		if s, ok := h.tenants.Load(n); ok {
			fn(n, s.(*TenantSeries))
		}
	}
}

// ServerMetrics covers the wire server.
type ServerMetrics struct {
	// Requests counts wire requests served (queries + estimates).
	Requests Counter
	// InFlight is the number of requests currently executing.
	InFlight Gauge
	// RowsSent counts result rows streamed to clients.
	RowsSent Counter
	// BytesSent counts result payload bytes streamed to clients.
	BytesSent Counter
	// RequestSeconds is the end-to-end request latency (ns samples,
	// exported in seconds).
	RequestSeconds Histogram
	// DeadlinesExceeded counts requests abandoned at the server's
	// per-request deadline.
	DeadlinesExceeded Counter
	// BudgetRefused counts budgeted requests the server refused without
	// executing because the budget that rode the wire was already spent.
	BudgetRefused Counter
}

// Metrics is one observability sink: every layer's metric set plus the
// span tracer. The zero value is ready to use; a nil *Metrics is the
// disabled sink and every recording method on it is a no-op.
type Metrics struct {
	Planner PlannerMetrics
	Exec    ExecMetrics
	Tagger  TaggerMetrics
	Cache   CacheMetrics
	Client  ClientMetrics
	Server  ServerMetrics
	HTTP    HTTPMetrics
	Tracer  Tracer
}

// NewMetrics returns a fresh, enabled metrics sink.
func NewMetrics() *Metrics { return &Metrics{} }

var global atomic.Pointer[Metrics]

// M returns the process-global metrics sink, or nil while observability is
// disabled. Callers hold the result in a local and call its nil-safe
// recording methods.
func M() *Metrics { return global.Load() }

// Enable installs a process-global metrics sink if none is installed yet
// and returns the active one. It is idempotent and safe for concurrent
// use.
func Enable() *Metrics {
	m := NewMetrics()
	if global.CompareAndSwap(nil, m) {
		return m
	}
	return global.Load()
}

// SetGlobal replaces the process-global sink (nil disables observability
// again). Intended for tests that need an isolated sink.
func SetGlobal(m *Metrics) { global.Store(m) }

// --- nil-safe recording methods, one per instrumentation point ---

// PlannerSearch records the start of one greedy search.
func (m *Metrics) PlannerSearch() {
	if m == nil {
		return
	}
	m.Planner.Searches.Inc()
}

// PlannerEstimateRequest records one oracle estimate request issued.
func (m *Metrics) PlannerEstimateRequest() {
	if m == nil {
		return
	}
	m.Planner.EstimateRequests.Inc()
}

// PlannerCacheHit records a candidate query answered from the estimate
// cache.
func (m *Metrics) PlannerCacheHit() {
	if m == nil {
		return
	}
	m.Planner.CacheHits.Inc()
}

// EngineQuery records one executed SQL statement and its latency.
func (m *Metrics) EngineQuery(d time.Duration) {
	if m == nil {
		return
	}
	m.Exec.Queries.Inc()
	m.Exec.QuerySeconds.Observe(int64(d))
}

// EngineEstimate records one estimate request served by the engine.
func (m *Metrics) EngineEstimate() {
	if m == nil {
		return
	}
	m.Exec.EstimatesServed.Inc()
}

// ExecScan records rows read from a base-table scan.
func (m *Metrics) ExecScan(rows int64) {
	if m == nil {
		return
	}
	m.Exec.RowsScanned.Add(rows)
}

// ExecJoin records rows produced by a join operator.
func (m *Metrics) ExecJoin(rows int64) {
	if m == nil {
		return
	}
	m.Exec.RowsJoined.Add(rows)
}

// ExecSort records rows passed through a sort.
func (m *Metrics) ExecSort(rows int64) {
	if m == nil {
		return
	}
	m.Exec.RowsSorted.Add(rows)
}

// ExecSpill records external-sort runs spilled to disk.
func (m *Metrics) ExecSpill(runs int64) {
	if m == nil {
		return
	}
	m.Exec.SortSpills.Add(runs)
}

// TaggerDocument records one materialized document's element and byte
// counts.
func (m *Metrics) TaggerDocument(elements, bytes int64) {
	if m == nil {
		return
	}
	m.Tagger.Documents.Inc()
	m.Tagger.Elements.Add(elements)
	m.Tagger.Bytes.Add(bytes)
}

// PlanCacheHit records a plan request answered from the plan cache.
func (m *Metrics) PlanCacheHit() {
	if m == nil {
		return
	}
	m.Cache.PlanHits.Inc()
}

// PlanCacheMiss records a plan-cache lookup that fell through to planning.
func (m *Metrics) PlanCacheMiss() {
	if m == nil {
		return
	}
	m.Cache.PlanMisses.Inc()
}

// FragmentCacheHit records a materialization served from the fragment
// cache.
func (m *Metrics) FragmentCacheHit() {
	if m == nil {
		return
	}
	m.Cache.FragmentHits.Inc()
}

// FragmentCacheMiss records a fragment-cache lookup that fell through to a
// cold run.
func (m *Metrics) FragmentCacheMiss() {
	if m == nil {
		return
	}
	m.Cache.FragmentMisses.Inc()
}

// FragmentCacheEvict records entries evicted for the byte budget.
func (m *Metrics) FragmentCacheEvict(n int64) {
	if m == nil {
		return
	}
	m.Cache.FragmentEvictions.Add(n)
}

// FragmentCacheInvalidate records entries dropped by write invalidation.
func (m *Metrics) FragmentCacheInvalidate(n int64) {
	if m == nil {
		return
	}
	m.Cache.FragmentInvalidations.Add(n)
}

// FragmentProbeFailure records a remote stats-epoch probe that failed,
// forcing the caches onto the cold path.
func (m *Metrics) FragmentProbeFailure() {
	if m == nil {
		return
	}
	m.Cache.ProbeFailures.Inc()
}

// CacheBytes records the fragment cache's current size.
func (m *Metrics) CacheBytes(n int64) {
	if m == nil {
		return
	}
	m.Cache.FragmentBytes.Set(n)
}

// ClientRequestStart records one logical wire request entering flight.
func (m *Metrics) ClientRequestStart() {
	if m == nil {
		return
	}
	m.Client.Requests.Inc()
	m.Client.InFlight.Inc()
}

// ClientRequestEnd records a wire request leaving flight; deadlineExceeded
// marks requests that failed on a deadline.
func (m *Metrics) ClientRequestEnd(deadlineExceeded bool) {
	if m == nil {
		return
	}
	m.Client.InFlight.Dec()
	if deadlineExceeded {
		m.Client.DeadlineExceeded.Inc()
	}
}

// ClientDial records a fresh connection dialed.
func (m *Metrics) ClientDial() {
	if m == nil {
		return
	}
	m.Client.Dials.Inc()
}

// ClientPoolHit records a request served from the idle pool.
func (m *Metrics) ClientPoolHit() {
	if m == nil {
		return
	}
	m.Client.PoolHits.Inc()
}

// ClientRetry records one retry attempt.
func (m *Metrics) ClientRetry() {
	if m == nil {
		return
	}
	m.Client.Retries.Inc()
}

// ClientStaleConn records a pooled connection evicted by the liveness
// check.
func (m *Metrics) ClientStaleConn() {
	if m == nil {
		return
	}
	m.Client.StaleConns.Inc()
}

// ClientResume records one mid-stream resume attempt.
func (m *Metrics) ClientResume() {
	if m == nil {
		return
	}
	m.Client.Resumes.Inc()
}

// ClientStreamLost records a started stream that died unrecoverably.
func (m *Metrics) ClientStreamLost() {
	if m == nil {
		return
	}
	m.Client.StreamsLost.Inc()
}

// ClientBreakerOpen records a circuit-breaker open transition.
func (m *Metrics) ClientBreakerOpen() {
	if m == nil {
		return
	}
	m.Client.BreakerOpens.Inc()
}

// ClientBreakerState records the breaker's current state (0 closed,
// 1 half-open, 2 open).
func (m *Metrics) ClientBreakerState(s int64) {
	if m == nil {
		return
	}
	m.Client.BreakerState.Set(s)
}

// ClientFailover records one cross-replica failover.
func (m *Metrics) ClientFailover() {
	if m == nil {
		return
	}
	m.Client.Failovers.Inc()
}

// ClientHedge records one hedged open (a second replica raced against a
// slow primary).
func (m *Metrics) ClientHedge() {
	if m == nil {
		return
	}
	m.Client.Hedges.Inc()
}

// ClientNoHealthyReplica records a balancer pick that failed closed
// because every replica was open-circuit.
func (m *Metrics) ClientNoHealthyReplica() {
	if m == nil {
		return
	}
	m.Client.NoHealthyReplica.Inc()
}

// ReplicaHealth records the balancer's current view of the replica set:
// how many replicas are configured and how many are usable.
func (m *Metrics) ReplicaHealth(healthy, total int64) {
	if m == nil {
		return
	}
	m.Client.ReplicasHealthy.Set(healthy)
	m.Client.Replicas.Set(total)
}

// ShardTopology records the configured shard count of the active ShardSet.
func (m *Metrics) ShardTopology(n int64) {
	if m == nil {
		return
	}
	m.Client.Shards.Set(n)
}

// ClientScatter records the per-shard partial streams opened by one
// scatter query.
func (m *Metrics) ClientScatter(streams int64) {
	if m == nil {
		return
	}
	m.Client.ScatterStreams.Add(streams)
}

// ShardMergeDone records the wall-clock of one sharded k-way merge, from
// scatter open to drained merged stream.
func (m *Metrics) ShardMergeDone(start time.Time) {
	if m == nil {
		return
	}
	m.Client.ShardMergeSeconds.ObserveSince(start)
}

// HTTPSessionOpen records one HTTP session beginning its lifecycle.
func (m *Metrics) HTTPSessionOpen() {
	if m == nil {
		return
	}
	m.HTTP.Sessions.Inc()
}

// HTTPReject records a request refused by admission control (503).
func (m *Metrics) HTTPReject() {
	if m == nil {
		return
	}
	m.HTTP.Rejected.Inc()
}

// HTTPRejectTenant records a request refused by the named tenant's quota
// (429).
func (m *Metrics) HTTPRejectTenant(tenant string) {
	if m == nil {
		return
	}
	m.HTTP.RejectedTenant.Inc()
	m.HTTP.Tenant(tenant).Rejected.Inc()
}

// HTTPBudgetExpired records a request refused at admission because its
// declared deadline budget had already run out.
func (m *Metrics) HTTPBudgetExpired() {
	if m == nil {
		return
	}
	m.HTTP.BudgetExpired.Inc()
}

// HTTPStaleServe records a response served whole from a stale
// fragment-cache entry while the backend was unhealthy.
func (m *Metrics) HTTPStaleServe() {
	if m == nil {
		return
	}
	m.HTTP.StaleServes.Inc()
}

// ViewReload records the outcome of one hot-reload attempt from the view
// dir: a swap that took effect, or a failure that left the previous
// binding serving.
func (m *Metrics) ViewReload(ok bool) {
	if m == nil {
		return
	}
	if ok {
		m.HTTP.Reloads.Inc()
	} else {
		m.HTTP.ReloadErrors.Inc()
	}
}

// HTTPRequestStart records a view request admitted for service.
func (m *Metrics) HTTPRequestStart(view, tenant string) {
	if m == nil {
		return
	}
	m.HTTP.Requests.Inc()
	m.HTTP.InFlight.Inc()
	s := m.HTTP.View(view)
	s.Requests.Inc()
	s.InFlight.Inc()
	t := m.HTTP.Tenant(tenant)
	t.Requests.Inc()
	t.InFlight.Inc()
}

// HTTPRequestEnd records a view request finishing: its latency, streamed
// bytes, and whether it failed after admission.
func (m *Metrics) HTTPRequestEnd(view, tenant string, d time.Duration, bytes int64, failed bool) {
	if m == nil {
		return
	}
	m.HTTP.InFlight.Dec()
	s := m.HTTP.View(view)
	s.InFlight.Dec()
	s.Bytes.Add(bytes)
	s.Latency.Observe(int64(d))
	if failed {
		s.Errors.Inc()
	}
	t := m.HTTP.Tenant(tenant)
	t.InFlight.Dec()
	t.Bytes.Add(bytes)
}

// ServerRequestStart records a wire request starting on the server.
func (m *Metrics) ServerRequestStart() {
	if m == nil {
		return
	}
	m.Server.Requests.Inc()
	m.Server.InFlight.Inc()
}

// ServerRequestEnd records a wire request finishing on the server.
func (m *Metrics) ServerRequestEnd(d time.Duration, deadlineExceeded bool) {
	if m == nil {
		return
	}
	m.Server.InFlight.Dec()
	m.Server.RequestSeconds.Observe(int64(d))
	if deadlineExceeded {
		m.Server.DeadlinesExceeded.Inc()
	}
}

// ClientBudgetExpired records a request shed client-side because its
// propagated deadline budget had already run out before a connection was
// acquired.
func (m *Metrics) ClientBudgetExpired() {
	if m == nil {
		return
	}
	m.Client.BudgetExpired.Inc()
}

// ServerBudgetRefused records a budgeted wire request the server refused
// without executing because its budget was already spent.
func (m *Metrics) ServerBudgetRefused() {
	if m == nil {
		return
	}
	m.Server.BudgetRefused.Inc()
}

// ServerSent records result rows and payload bytes streamed to a client.
func (m *Metrics) ServerSent(rows, bytes int64) {
	if m == nil {
		return
	}
	m.Server.RowsSent.Add(rows)
	m.Server.BytesSent.Add(bytes)
}
