package obs

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTTPMetricsNilSafe(t *testing.T) {
	old := M()
	SetGlobal(nil)
	defer SetGlobal(old)
	// With observability off, /metrics still answers, with nothing in it.
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if body, _ := io.ReadAll(rec.Body); rec.Code != 200 || len(body) != 0 {
		t.Fatalf("GET /metrics on the nil sink: %d %q", rec.Code, body)
	}
}

func TestHTTPMetricsPerViewSeries(t *testing.T) {
	m := &Metrics{}
	for _, r := range []struct {
		view  string
		bytes int64
		lat   time.Duration
	}{{"q1", 1000, 5 * time.Millisecond}, {"q1", 1200, 7 * time.Millisecond}, {"q2", 50, time.Millisecond}} {
		v := m.HTTP.Views.Get(r.view)
		v.Requests.Inc()
		v.Bytes.Add(r.bytes)
		v.Latency.Observe(r.lat)
	}
	m.HTTP.Views.Get("q1").Errors.Inc()

	q1 := m.HTTP.Views.Get("q1")
	if q1.Requests.Value() != 2 || q1.Errors.Value() != 1 || q1.Bytes.Value() != 2200 {
		t.Errorf("q1 series = %d req, %d err, %d bytes; want 2, 1, 2200",
			q1.Requests.Value(), q1.Errors.Value(), q1.Bytes.Value())
	}
	if c, _ := q1.Latency.cumulative(); c[len(bucketBounds)] != 2 {
		t.Errorf("q1 latency samples = %d, want 2", c[len(bucketBounds)])
	}
	// Sets come back in lexical label order, and Get returns the same set
	// each call.
	_, values, _ := m.HTTP.Views.sets()
	if len(values) != 2 || values[0] != "q1" || values[1] != "q2" {
		t.Errorf("view order = %v, want [q1 q2]", values)
	}
	if m.HTTP.Views.Get("q1") != q1 {
		t.Error("Get returned a different series set for the same view")
	}
}

func TestHTTPMetricsPerTenantSeries(t *testing.T) {
	m := &Metrics{}
	m.HTTP.Tenants.Get("beta").Requests.Inc()
	acme := m.HTTP.Tenants.Get("acme")
	acme.Requests.Add(2)
	acme.Rejected.Add(2)
	acme.Bytes.Add(1200)

	if acme.Requests.Value() != 2 || acme.Rejected.Value() != 2 || acme.Bytes.Value() != 1200 {
		t.Errorf("acme series = %d req, %d rej, %d bytes; want 2, 2, 1200",
			acme.Requests.Value(), acme.Rejected.Value(), acme.Bytes.Value())
	}
	_, values, _ := m.HTTP.Tenants.sets()
	if len(values) != 2 || values[0] != "acme" || values[1] != "beta" {
		t.Errorf("tenant order = %v, want [acme beta]", values)
	}
	// Values differing only in invalid UTF-8 are one series in the
	// exposition, so they share one set.
	if m.HTTP.Tenants.Get("a\xff") != m.HTTP.Tenants.Get("a\xfe") {
		t.Error("invalid UTF-8 variants of one tenant name got separate sets")
	}
}

func TestPrometheusHTTPExposition(t *testing.T) {
	m := &Metrics{}
	m.HTTP.Sessions.Inc()
	m.HTTP.Requests.Inc()
	m.HTTP.Rejected.Inc()
	m.HTTP.RejectedTenant.Inc()
	m.HTTP.BudgetExpired.Inc()
	m.HTTP.StaleServes.Inc()
	m.HTTP.Reloads.Inc()
	m.HTTP.ReloadErrors.Inc()
	m.Client.BudgetExpired.Inc()
	m.Server.BudgetRefused.Inc()
	v, ten := m.HTTP.Views.Get("fragment"), m.HTTP.Tenants.Get("acme")
	v.Requests.Inc()
	v.Bytes.Add(512)
	v.Latency.Observe(3 * time.Millisecond)
	ten.Requests.Inc()
	ten.Rejected.Inc()
	ten.Bytes.Add(512)

	var b strings.Builder
	m.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"silkroute_http_requests_total 1",
		"silkroute_http_rejected_total 1",
		"silkroute_http_rejected_tenant_total 1",
		"silkroute_http_budget_expired_total 1",
		"silkroute_http_stale_serves_total 1",
		"silkroute_http_reloads_total 1",
		"silkroute_http_reload_errors_total 1",
		"silkroute_http_sessions_total 1",
		"silkroute_http_inflight 0",
		"silkroute_wire_client_budget_expired_total 1",
		"silkroute_wire_server_budget_refused_total 1",
		`silkroute_http_view_requests_total{view="fragment"} 1`,
		`silkroute_http_view_bytes_total{view="fragment"} 512`,
		`silkroute_http_view_request_seconds_bucket{view="fragment",le="0.004642"} 1`,
		`silkroute_http_view_request_seconds_count{view="fragment"} 1`,
		`silkroute_http_tenant_requests_total{tenant="acme"} 1`,
		`silkroute_http_tenant_rejected_total{tenant="acme"} 1`,
		`silkroute_http_tenant_bytes_total{tenant="acme"} 512`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
