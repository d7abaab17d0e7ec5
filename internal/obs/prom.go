package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"
)

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4). Counters become `*_total` counters, gauges
// gauges, and histograms summaries with p50/p95/p99 quantiles plus
// `_sum`/`_count`; durations are exported in seconds per Prometheus
// convention.
func (m *Metrics) WritePrometheus(b *strings.Builder) {
	if m == nil {
		return
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	summary := func(name, help string, h *Histogram) {
		qs := h.Quantiles(0.5, 0.95, 0.99)
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
		for i, q := range []string{"0.5", "0.95", "0.99"} {
			fmt.Fprintf(b, "%s{quantile=%q} %g\n", name, q, time.Duration(qs[i]).Seconds())
		}
		fmt.Fprintf(b, "%s_sum %g\n%s_count %d\n", name, time.Duration(h.Sum()).Seconds(), name, h.Count())
	}

	counter("silkroute_planner_searches_total", "Greedy plan searches run.", m.Planner.Searches.Value())
	counter("silkroute_planner_estimate_requests_total", "Cost-estimate requests issued to the oracle by the greedy planner.", m.Planner.EstimateRequests.Value())
	counter("silkroute_planner_estimate_cache_hits_total", "Greedy candidate queries answered from the estimate cache.", m.Planner.CacheHits.Value())

	counter("silkroute_engine_queries_total", "SQL statements executed by the engine.", m.Exec.Queries.Value())
	summary("silkroute_engine_query_seconds", "Engine-side SQL execution latency in seconds.", &m.Exec.QuerySeconds)
	counter("silkroute_engine_estimate_requests_total", "Optimizer estimate requests served by the engine.", m.Exec.EstimatesServed.Value())
	counter("silkroute_exec_rows_scanned_total", "Rows read from base-table scans.", m.Exec.RowsScanned.Value())
	counter("silkroute_exec_rows_joined_total", "Rows produced by join operators.", m.Exec.RowsJoined.Value())
	counter("silkroute_exec_rows_sorted_total", "Rows passed through ORDER BY sorts.", m.Exec.RowsSorted.Value())
	counter("silkroute_exec_sort_spills_total", "External-sort runs spilled to disk.", m.Exec.SortSpills.Value())

	counter("silkroute_tagger_documents_total", "XML documents materialized by the tagger.", m.Tagger.Documents.Value())
	counter("silkroute_tagger_elements_total", "XML elements emitted by the tagger.", m.Tagger.Elements.Value())
	counter("silkroute_tagger_bytes_total", "XML bytes written by the tagger.", m.Tagger.Bytes.Value())

	counter("silkroute_cache_plan_hits_total", "Plan requests answered from the plan cache.", m.Cache.PlanHits.Value())
	counter("silkroute_cache_plan_misses_total", "Plan-cache lookups that fell through to planning.", m.Cache.PlanMisses.Value())
	counter("silkroute_cache_fragment_hits_total", "Materializations served whole from the fragment cache.", m.Cache.FragmentHits.Value())
	counter("silkroute_cache_fragment_misses_total", "Fragment-cache lookups that fell through to a cold run.", m.Cache.FragmentMisses.Value())
	counter("silkroute_cache_fragment_evictions_total", "Fragment-cache entries evicted for the byte budget.", m.Cache.FragmentEvictions.Value())
	counter("silkroute_cache_fragment_invalidations_total", "Fragment-cache entries dropped by write invalidation.", m.Cache.FragmentInvalidations.Value())
	counter("silkroute_cache_fragment_probe_failures_total", "Remote stats-epoch probes that failed, forcing a cold run.", m.Cache.ProbeFailures.Value())
	gauge("silkroute_cache_bytes", "Current fragment-cache size in bytes.", m.Cache.FragmentBytes.Value())

	counter("silkroute_wire_client_requests_total", "Logical wire requests (queries and estimates) submitted.", m.Client.Requests.Value())
	counter("silkroute_wire_client_dials_total", "Fresh wire connections dialed.", m.Client.Dials.Value())
	counter("silkroute_wire_client_pool_hits_total", "Wire requests served from the idle-connection pool.", m.Client.PoolHits.Value())
	counter("silkroute_wire_client_retries_total", "Wire request retry attempts.", m.Client.Retries.Value())
	counter("silkroute_wire_client_deadline_exceeded_total", "Wire requests that hit a deadline.", m.Client.DeadlineExceeded.Value())
	counter("silkroute_wire_client_stale_conns_total", "Pooled connections evicted by the liveness check.", m.Client.StaleConns.Value())
	counter("silkroute_wire_client_resumes_total", "Mid-stream resume attempts after transport failures.", m.Client.Resumes.Value())
	counter("silkroute_wire_client_streams_lost_total", "Started streams that died unrecoverably.", m.Client.StreamsLost.Value())
	counter("silkroute_wire_client_breaker_opens_total", "Circuit-breaker open transitions.", m.Client.BreakerOpens.Value())
	gauge("silkroute_wire_client_breaker_state", "Circuit-breaker state: 0 closed, 1 half-open, 2 open.", m.Client.BreakerState.Value())
	gauge("silkroute_wire_client_inflight", "Wire requests currently outstanding.", m.Client.InFlight.Value())
	counter("silkroute_wire_client_failovers_total", "Reopens that moved a live stream to a different replica.", m.Client.Failovers.Value())
	counter("silkroute_wire_client_hedges_total", "Hedged opens raced against a slow primary replica.", m.Client.Hedges.Value())
	counter("silkroute_wire_client_no_healthy_replica_total", "Balancer picks that failed closed with every replica open-circuit.", m.Client.NoHealthyReplica.Value())
	gauge("silkroute_wire_replicas", "Configured replica count of the active replica set.", m.Client.Replicas.Value())
	gauge("silkroute_wire_replicas_healthy", "Replicas the balancer currently considers usable.", m.Client.ReplicasHealthy.Value())
	gauge("silkroute_wire_shards", "Configured shard count of the active shard set.", m.Client.Shards.Value())
	counter("silkroute_wire_client_scatter_streams_total", "Per-shard partial streams opened by scatter queries.", m.Client.ScatterStreams.Value())
	summary("silkroute_wire_shard_merge_seconds", "Sharded k-way merge wall-clock in seconds, scatter open to drained stream.", &m.Client.ShardMergeSeconds)

	counter("silkroute_wire_client_budget_expired_total", "Wire requests shed client-side with an already-spent deadline budget.", m.Client.BudgetExpired.Value())

	counter("silkroute_http_requests_total", "HTTP view requests admitted for service.", m.HTTP.Requests.Value())
	counter("silkroute_http_rejected_total", "HTTP requests refused by admission control (503 + Retry-After).", m.HTTP.Rejected.Value())
	counter("silkroute_http_rejected_tenant_total", "HTTP requests refused by a per-tenant quota (429 + Retry-After).", m.HTTP.RejectedTenant.Value())
	counter("silkroute_http_budget_expired_total", "HTTP requests refused at admission with an already-spent deadline budget (504).", m.HTTP.BudgetExpired.Value())
	counter("silkroute_http_stale_serves_total", "Responses served whole from a stale fragment-cache entry while the backend was unhealthy.", m.HTTP.StaleServes.Value())
	counter("silkroute_http_reloads_total", "View/topology files hot-reloaded from the view dir.", m.HTTP.Reloads.Value())
	counter("silkroute_http_reload_errors_total", "Hot-reload attempts that failed, previous binding kept.", m.HTTP.ReloadErrors.Value())
	counter("silkroute_http_sessions_total", "HTTP sessions opened.", m.HTTP.Sessions.Value())
	gauge("silkroute_http_inflight", "HTTP view responses currently streaming.", m.HTTP.InFlight.Value())
	m.writeViewSeries(b)
	m.writeTenantSeries(b)

	counter("silkroute_wire_server_requests_total", "Wire requests served.", m.Server.Requests.Value())
	counter("silkroute_wire_server_rows_sent_total", "Result rows streamed to wire clients.", m.Server.RowsSent.Value())
	counter("silkroute_wire_server_bytes_sent_total", "Result payload bytes streamed to wire clients.", m.Server.BytesSent.Value())
	counter("silkroute_wire_server_deadline_exceeded_total", "Wire requests abandoned at the server-side deadline.", m.Server.DeadlinesExceeded.Value())
	counter("silkroute_wire_server_budget_refused_total", "Budgeted wire requests refused without executing: budget already spent.", m.Server.BudgetRefused.Value())
	gauge("silkroute_wire_server_inflight", "Wire requests currently executing on the server.", m.Server.InFlight.Value())
	summary("silkroute_wire_server_request_seconds", "End-to-end wire request latency in seconds.", &m.Server.RequestSeconds)
}

// writeViewSeries renders the per-view HTTP series, one labeled sample per
// registered view, in lexical name order so scrapes are diff-stable.
func (m *Metrics) writeViewSeries(b *strings.Builder) {
	type row struct {
		name string
		s    *ViewSeries
	}
	var rows []row
	m.HTTP.EachView(func(name string, s *ViewSeries) { rows = append(rows, row{name, s}) })
	if len(rows) == 0 {
		return
	}
	emit := func(metric, typ, help string, v func(*ViewSeries) int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", metric, help, metric, typ)
		for _, r := range rows {
			fmt.Fprintf(b, "%s{view=%q} %d\n", metric, r.name, v(r.s))
		}
	}
	emit("silkroute_http_view_requests_total", "counter", "View requests admitted, per view.",
		func(s *ViewSeries) int64 { return s.Requests.Value() })
	emit("silkroute_http_view_errors_total", "counter", "View requests that failed after admission, per view.",
		func(s *ViewSeries) int64 { return s.Errors.Value() })
	emit("silkroute_http_view_bytes_total", "counter", "Response bytes streamed, per view.",
		func(s *ViewSeries) int64 { return s.Bytes.Value() })
	emit("silkroute_http_view_inflight", "gauge", "Responses currently streaming, per view.",
		func(s *ViewSeries) int64 { return s.InFlight.Value() })
	const lat = "silkroute_http_view_request_seconds"
	fmt.Fprintf(b, "# HELP %s End-to-end view request latency in seconds, per view.\n# TYPE %s summary\n", lat, lat)
	for _, r := range rows {
		qs := r.s.Latency.Quantiles(0.5, 0.95, 0.99)
		for i, q := range []string{"0.5", "0.95", "0.99"} {
			fmt.Fprintf(b, "%s{view=%q,quantile=%q} %g\n", lat, r.name, q, time.Duration(qs[i]).Seconds())
		}
		fmt.Fprintf(b, "%s_sum{view=%q} %g\n%s_count{view=%q} %d\n",
			lat, r.name, time.Duration(r.s.Latency.Sum()).Seconds(), lat, r.name, r.s.Latency.Count())
	}
}

// writeTenantSeries renders the per-tenant HTTP series, one labeled sample
// per tenant seen, in lexical name order so scrapes are diff-stable.
func (m *Metrics) writeTenantSeries(b *strings.Builder) {
	type row struct {
		name string
		s    *TenantSeries
	}
	var rows []row
	m.HTTP.EachTenant(func(name string, s *TenantSeries) { rows = append(rows, row{name, s}) })
	if len(rows) == 0 {
		return
	}
	emit := func(metric, typ, help string, v func(*TenantSeries) int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", metric, help, metric, typ)
		for _, r := range rows {
			fmt.Fprintf(b, "%s{tenant=%q} %d\n", metric, r.name, v(r.s))
		}
	}
	emit("silkroute_http_tenant_requests_total", "counter", "View requests admitted, per tenant.",
		func(s *TenantSeries) int64 { return s.Requests.Value() })
	emit("silkroute_http_tenant_rejected_total", "counter", "Requests refused by the tenant's quota (429), per tenant.",
		func(s *TenantSeries) int64 { return s.Rejected.Value() })
	emit("silkroute_http_tenant_bytes_total", "counter", "Response bytes streamed, per tenant.",
		func(s *TenantSeries) int64 { return s.Bytes.Value() })
	emit("silkroute_http_tenant_inflight", "gauge", "Responses currently streaming, per tenant.",
		func(s *TenantSeries) int64 { return s.InFlight.Value() })
}

// Handler returns an http.Handler serving /metrics (Prometheus text) and
// /healthz (200 ok) from the process-global sink. The sink is read at
// request time, so a handler created before Enable still works.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		M().WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// ListenAndServe enables the global sink and serves /metrics + /healthz on
// addr until ctx is done, then shuts the listener down. It returns once
// the listener is bound (serving continues in a goroutine), so callers can
// scrape immediately; the returned address is the bound one ("addr" may
// have port 0).
func ListenAndServe(ctx context.Context, addr string) (string, error) {
	Enable()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: Handler()}
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()
	go srv.Serve(l)
	return l.Addr().String(), nil
}
