// Package obs is SilkRoute's observability layer: dependency-free metrics
// (atomic counters, gauges and fixed-bucket latency histograms) and
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
//   - One declaration per metric: a struct field tagged with its series
//     name and help text. The Prometheus type follows from the field's Go
//     type (Counter, Gauge or Histogram), and one reflective walk renders
//     every family for /metrics (see WritePrometheus); DESIGN §9 is checked
//     against the same walk.
//   - Dependency-free: only the standard library, so the middleware's
//     "black box" posture toward the target database (and toward any
//     vendored telemetry stack) is preserved.
//   - Nil sink is free: observability is off by default, and M returns
//     nil. Call sites record through the field path under one nil check,
//     `if m := obs.M(); m != nil { m.Client.Dials.Inc() }`, so a disabled
//     sink costs one atomic load and one branch. Instrumented hot loops
//     accumulate locally and record once per operator, so the row hot path
//     gains zero allocations.
//   - Global by default: like Prometheus's default registry, one
//     process-global *Metrics is shared by every layer once Enable is
//     called. Tests that need isolation swap it with SetGlobal.
package obs

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down (in-flight requests,
// pool occupancy).
type Gauge struct{ v atomic.Int64 }

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// bucketBounds are the upper bounds shared by every Histogram: 16
// log-spaced steps of 10^(1/3) from 100 µs to 10 s, rounded to the
// microsecond. One fixed set is what lets scrapes from many instances be
// summed bucket by bucket.
var bucketBounds = func() (b [16]time.Duration) {
	for i := range b {
		b[i] = time.Duration(math.Round(100*math.Pow(10, float64(i)/3))) * time.Microsecond
	}
	return b
}()

// Histogram counts durations into the fixed buckets of bucketBounds plus
// an overflow bucket, and keeps their lifetime sum. Every field is atomic:
// recording takes no lock and a scrape sorts nothing.
type Histogram struct {
	counts [len(bucketBounds) + 1]atomic.Int64 // per bucket, not cumulative
	sum    atomic.Int64                        // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(bucketBounds) && d > bucketBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
}

// cumulative returns the cumulative bucket counts, whose last entry (the
// +Inf bucket) is the observation count, and the sum in nanoseconds.
func (h *Histogram) cumulative() (c [len(bucketBounds) + 1]int64, sum int64) {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
		c[i] = n
	}
	return c, h.sum.Load()
}

// Labeled holds one series set S per label value, each created on first
// use and kept for the process lifetime. The field declaring it names the
// label in a `label` tag; S's own tagged fields are the families.
type Labeled[S any] struct{ m sync.Map }

// Get returns the series set for one label value, creating it on first use.
// Invalid UTF-8 in value becomes U+FFFD, the form the exposition can carry,
// so values differing only there share one set.
func (l *Labeled[S]) Get(value string) *S {
	value = strings.ToValidUTF8(value, "\uFFFD")
	if s, ok := l.m.Load(value); ok {
		return s.(*S)
	}
	s, _ := l.m.LoadOrStore(value, new(S))
	return s.(*S)
}

// sets returns S's type and every series set with its label value, in
// lexical label order so scrapes are diff-stable.
func (l *Labeled[S]) sets() (reflect.Type, []string, []reflect.Value) {
	var values []string
	l.m.Range(func(k, _ any) bool {
		values = append(values, k.(string))
		return true
	})
	sort.Strings(values)
	sets := make([]reflect.Value, len(values))
	for i, v := range values {
		sets[i] = reflect.ValueOf(l.Get(v)).Elem()
	}
	return reflect.TypeOf((*S)(nil)).Elem(), values, sets
}

// PlannerMetrics covers the greedy plan search (§5).
type PlannerMetrics struct {
	Searches         Counter `metric:"silkroute_planner_searches_total" help:"Greedy plan searches run."`
	EstimateRequests Counter `metric:"silkroute_planner_estimate_requests_total" help:"Cost-estimate requests the greedy planner issued to its oracle (the live version of the paper's §5.1 request count)."`
	CacheHits        Counter `metric:"silkroute_planner_estimate_cache_hits_total" help:"Greedy candidate queries answered from the singleflight estimate cache."`
}

// ExecMetrics covers the SQL executor's operator loops and the engine
// around them.
type ExecMetrics struct {
	Queries         Counter   `metric:"silkroute_engine_queries_total" help:"SQL statements executed by the engine."`
	QuerySeconds    Histogram `metric:"silkroute_engine_query_seconds" help:"Engine-side SQL execution latency in seconds."`
	EstimatesServed Counter   `metric:"silkroute_engine_estimate_requests_total" help:"Optimizer estimate requests served by the engine."`
	RowsScanned     Counter   `metric:"silkroute_exec_rows_scanned_total" help:"Rows read from base-table scans."`
	RowsJoined      Counter   `metric:"silkroute_exec_rows_joined_total" help:"Rows produced by join operators."`
	RowsSorted      Counter   `metric:"silkroute_exec_rows_sorted_total" help:"Rows passed through ORDER BY sorts."`
	SortSpills      Counter   `metric:"silkroute_exec_sort_spills_total" help:"External-sort runs spilled to disk."`
}

// TaggerMetrics covers the XML integration-and-tagging stage.
type TaggerMetrics struct {
	Documents Counter `metric:"silkroute_tagger_documents_total" help:"XML documents materialized by the tagger."`
	Elements  Counter `metric:"silkroute_tagger_elements_total" help:"XML elements emitted by the tagger."`
	Bytes     Counter `metric:"silkroute_tagger_bytes_total" help:"XML bytes written by the tagger, after escaping."`
}

// CacheMetrics covers the middleware's two cache levels: the plan memo
// (one compiled plan per view and strategy, at the stats epoch it was
// planned under) and the fragment cache (materialized XML under a byte
// budget).
type CacheMetrics struct {
	PlanHits              Counter `metric:"silkroute_cache_plan_hits_total" help:"Plan requests answered from the view's plan memo (planning skipped)."`
	PlanMisses            Counter `metric:"silkroute_cache_plan_misses_total" help:"Plan-memo lookups that fell through to planning."`
	FragmentHits          Counter `metric:"silkroute_cache_fragment_hits_total" help:"Materializations served whole from the fragment cache."`
	FragmentMisses        Counter `metric:"silkroute_cache_fragment_misses_total" help:"Fragment-cache lookups that fell through to a cold run (absent or stale entries)."`
	FragmentEvictions     Counter `metric:"silkroute_cache_fragment_evictions_total" help:"Fragment-cache entries evicted for the byte budget."`
	FragmentInvalidations Counter `metric:"silkroute_cache_fragment_invalidations_total" help:"Fragment-cache entries dropped at lookup because their freshness stamp no longer matched."`
	ProbeFailures         Counter `metric:"silkroute_cache_fragment_probe_failures_total" help:"Remote stats-epoch probes that failed, forcing a cold run (cache degraded, not merely cold)."`
	FragmentBytes         Gauge   `metric:"silkroute_cache_bytes" help:"Current fragment-cache size in bytes."`
}

// ClientMetrics covers the wire client.
type ClientMetrics struct {
	Requests          Counter   `metric:"silkroute_wire_client_requests_total" help:"Logical wire requests (queries and estimates) submitted."`
	Dials             Counter   `metric:"silkroute_wire_client_dials_total" help:"Fresh wire connections dialed."`
	PoolHits          Counter   `metric:"silkroute_wire_client_pool_hits_total" help:"Wire requests served from the idle-connection pool."`
	DeadlineExceeded  Counter   `metric:"silkroute_wire_client_deadline_exceeded_total" help:"Wire requests that hit a deadline."`
	StaleConns        Counter   `metric:"silkroute_wire_client_stale_conns_total" help:"Pooled connections evicted by the liveness check."`
	Resumes           Counter   `metric:"silkroute_wire_client_resumes_total" help:"Reopens of a started stream after a mid-stream transport failure."`
	StreamsLost       Counter   `metric:"silkroute_wire_client_streams_lost_total" help:"Started streams that died unrecoverably."`
	BreakerOpens      Counter   `metric:"silkroute_wire_client_breaker_opens_total" help:"Circuit-breaker open transitions."`
	BreakerState      Gauge     `metric:"silkroute_wire_client_breaker_state" help:"Circuit-breaker state: 0 closed, 1 half-open, 2 open."`
	InFlight          Gauge     `metric:"silkroute_wire_client_inflight" help:"Wire requests currently outstanding."`
	Failovers         Counter   `metric:"silkroute_wire_client_failovers_total" help:"Reopens that moved a live stream to a different replica."`
	NoHealthyReplica  Counter   `metric:"silkroute_wire_client_no_healthy_replica_total" help:"Balancer picks that failed closed with every replica open-circuit."`
	Replicas          Gauge     `metric:"silkroute_wire_replicas" help:"Configured replica count of the active replica set."`
	ReplicasHealthy   Gauge     `metric:"silkroute_wire_replicas_healthy" help:"Replicas the balancer currently considers usable."`
	Shards            Gauge     `metric:"silkroute_wire_shards" help:"Configured shard count of the active shard set."`
	ScatterStreams    Counter   `metric:"silkroute_wire_client_scatter_streams_total" help:"Per-shard partial streams opened by scatter queries."`
	ShardMergeSeconds Histogram `metric:"silkroute_wire_shard_merge_seconds" help:"Sharded k-way merge wall-clock in seconds, scatter open to drained stream."`
	BudgetExpired     Counter   `metric:"silkroute_wire_client_budget_expired_total" help:"Wire requests shed client-side with an already-spent deadline budget (no connection acquired)."`
}

// ServerMetrics covers the wire server.
type ServerMetrics struct {
	Requests          Counter   `metric:"silkroute_wire_server_requests_total" help:"Wire requests served."`
	RowsSent          Counter   `metric:"silkroute_wire_server_rows_sent_total" help:"Result rows streamed to wire clients."`
	BytesSent         Counter   `metric:"silkroute_wire_server_bytes_sent_total" help:"Result payload bytes streamed to wire clients."`
	DeadlinesExceeded Counter   `metric:"silkroute_wire_server_deadline_exceeded_total" help:"Wire requests abandoned at the server-side deadline."`
	BudgetRefused     Counter   `metric:"silkroute_wire_server_budget_refused_total" help:"Budgeted wire requests refused without executing: budget already spent."`
	InFlight          Gauge     `metric:"silkroute_wire_server_inflight" help:"Wire requests currently executing on the server."`
	RequestSeconds    Histogram `metric:"silkroute_wire_server_request_seconds" help:"End-to-end wire request latency in seconds."`
}

// HTTPMetrics covers the multi-tenant HTTP view service (silkrouted): the
// server-wide admission picture plus one labeled series set per view and
// per tenant. View registries and tenant tables are small, so their sets
// live for the process lifetime.
type HTTPMetrics struct {
	Requests       Counter `metric:"silkroute_http_requests_total" help:"HTTP view requests admitted for service."`
	Rejected       Counter `metric:"silkroute_http_rejected_total" help:"HTTP requests refused by admission control (503 + Retry-After)."`
	RejectedTenant Counter `metric:"silkroute_http_rejected_tenant_total" help:"HTTP requests refused by a per-tenant quota (429 + Retry-After)."`
	BudgetExpired  Counter `metric:"silkroute_http_budget_expired_total" help:"HTTP requests refused at admission with an already-spent deadline budget (504)."`
	StaleServes    Counter `metric:"silkroute_http_stale_serves_total" help:"Responses served whole from a stale fragment-cache entry while the backend was unhealthy."`
	Sessions       Counter `metric:"silkroute_http_sessions_total" help:"HTTP sessions opened."`
	InFlight       Gauge   `metric:"silkroute_http_inflight" help:"HTTP view responses currently streaming."`

	Views   Labeled[ViewSeries]   `label:"view"`
	Tenants Labeled[TenantSeries] `label:"tenant"`
}

// ViewSeries is one registered view's share of the HTTP view service.
type ViewSeries struct {
	Requests Counter   `metric:"silkroute_http_view_requests_total" help:"View requests admitted, per view."`
	Errors   Counter   `metric:"silkroute_http_view_errors_total" help:"View requests that failed after admission, per view."`
	Bytes    Counter   `metric:"silkroute_http_view_bytes_total" help:"Response bytes streamed, per view."`
	InFlight Gauge     `metric:"silkroute_http_view_inflight" help:"Responses currently streaming, per view."`
	Latency  Histogram `metric:"silkroute_http_view_request_seconds" help:"End-to-end view request latency in seconds, per view."`
}

// TenantSeries is one tenant's share of the HTTP view service.
type TenantSeries struct {
	Requests Counter `metric:"silkroute_http_tenant_requests_total" help:"View requests admitted, per tenant."`
	Rejected Counter `metric:"silkroute_http_tenant_rejected_total" help:"Requests refused by the tenant's own quota (429), per tenant."`
	Bytes    Counter `metric:"silkroute_http_tenant_bytes_total" help:"Response bytes streamed, per tenant."`
	InFlight Gauge   `metric:"silkroute_http_tenant_inflight" help:"Responses currently streaming, per tenant."`
}

// Metrics is one observability sink: every layer's metric set plus the
// span tracer. The zero value is ready to use; a nil *Metrics is the
// disabled sink.
type Metrics struct {
	Planner PlannerMetrics
	Exec    ExecMetrics
	Tagger  TaggerMetrics
	Cache   CacheMetrics
	Client  ClientMetrics
	HTTP    HTTPMetrics
	Server  ServerMetrics
	Tracer  Tracer
}

// NewMetrics returns a fresh, enabled metrics sink.
func NewMetrics() *Metrics { return &Metrics{} }

var global atomic.Pointer[Metrics]

// M returns the process-global metrics sink, or nil while observability is
// disabled. Callers record through its fields under one nil check.
func M() *Metrics { return global.Load() }

// Enable installs a process-global metrics sink if none is installed yet
// and returns the active one. It is idempotent and safe for concurrent
// use.
func Enable() *Metrics {
	global.CompareAndSwap(nil, NewMetrics())
	return global.Load()
}

// SetGlobal replaces the process-global sink (nil disables observability
// again). Intended for tests that need an isolated sink.
func SetGlobal(m *Metrics) { global.Store(m) }
