// Tests for the overload-control surface: per-tenant quotas (429 with the
// rate/concurrency split), the drain-derived Retry-After estimate, the
// deadline-budget admission check, drain racing an admit burst, the
// serve-stale degradation path with its fail-closed boundary, and the cap
// on tenant names.
package viewsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"silkroute"
	"silkroute/internal/obs"
	"silkroute/internal/obs/obstest"
	"silkroute/internal/rxl"
)

func TestDrainRetryAfterEstimate(t *testing.T) {
	cases := []struct {
		name   string
		oldest time.Duration
		quota  int
		want   time.Duration
	}{
		{"idle uses floor", 0, 4, time.Second},
		{"no quota uses floor", 10 * time.Second, 0, time.Second},
		{"oldest over quota", 20 * time.Second, 4, 5 * time.Second},
		{"clamped to floor", 2 * time.Second, 8, time.Second},
		{"clamped to ceiling", 10 * time.Minute, 2, time.Minute},
		{"nothing to observe uses floor", 0, 0, time.Second},
		{"negative age uses floor", -time.Second, 4, time.Second},
	}
	for _, c := range cases {
		if got := drainRetryAfter(c.oldest, c.quota); got != c.want {
			t.Errorf("%s: drainRetryAfter(%v, %d) = %v, want %v",
				c.name, c.oldest, c.quota, got, c.want)
		}
	}
}

// TestTenantRateQuota: a tenant past its token bucket answers 429 with a
// Retry-After derived from the bucket's refill rate, while a different
// tenant's bucket is untouched — quotas never bleed across identities.
func TestTenantRateQuota(t *testing.T) {
	db, _ := fixture(t)
	srv := New(Config{
		Registry: newRegistry(t, db),
		Tenants:  map[string]TenantLimits{"ratey": {Rate: 0.5, Burst: 1}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(tenant string) *http.Response {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/views/fragment", nil)
		if tenant != "" {
			req.Header.Set(HeaderTenant, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := get("ratey"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first in-budget request: status %d, want 200", resp.StatusCode)
	}
	// The bucket held one token; the immediate follow-up must be rejected
	// as the tenant's own problem (429, not the global 503).
	resp := get("ratey")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("drained bucket: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderTenant); got != "ratey" {
		t.Errorf("%s echo = %q, want ratey", HeaderTenant, got)
	}
	// At 0.5 tokens/s the next token is ~2s out; the header must say so
	// (whole seconds, rounded up, never zero).
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 2 {
		t.Errorf("Retry-After = %q, want 1..2 seconds", resp.Header.Get("Retry-After"))
	}

	// The default tenant carries no configured limits and is unaffected.
	if resp := get(""); resp.StatusCode != http.StatusOK {
		t.Errorf("default tenant: status %d, want 200", resp.StatusCode)
	}
}

// TestTenantConcurrencyQuota parks one stream for tenant "alice" (quota 1)
// and asserts: alice's next request bounces 429 while "bob" still serves;
// /sessions exposes the parked stream's tenant and remaining budget; and
// /tenants reports alice's in-flight count and rejection tally.
func TestTenantConcurrencyQuota(t *testing.T) {
	db, goldens := fixture(t)
	gate := make(chan struct{})
	admitted := make(chan struct{}, 1)
	srv := New(Config{
		Registry: newRegistry(t, db),
		Limits:   Limits{MaxConcurrent: 4},
		Tenants:  map[string]TenantLimits{"alice": {MaxConcurrent: 1}},
		Hooks: Hooks{StreamStarted: func(s *Session) {
			if s.Tenant == "alice" {
				admitted <- struct{}{}
				<-gate
			}
		}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	parked := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/views/fragment", nil)
		req.Header.Set(HeaderTenant, "alice")
		req.Header.Set(HeaderBudget, "30s")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			parked <- err
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && !bytes.Equal(body, goldens["fragment"]) {
			err = fmt.Errorf("parked alice stream diverged from golden")
		}
		parked <- err
	}()
	<-admitted

	// Alice is at her carve-out: 429, with a drain-derived Retry-After.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/views/fragment", nil)
	req.Header.Set(HeaderTenant, "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over quota: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// The server has three free global slots; bob is not alice's problem.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/views/fragment", nil)
	req.Header.Set(HeaderTenant, "bob")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, goldens["fragment"]) {
		t.Errorf("bob during alice's saturation: status %d, want 200 with golden", resp.StatusCode)
	}

	// /sessions shows the parked stream's identity and remaining budget.
	resp, err = http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var sessions []Session
	if err := json.Unmarshal(body, &sessions); err != nil {
		t.Fatalf("sessions JSON: %v: %s", err, truncate(body, 200))
	}
	if len(sessions) != 1 {
		t.Fatalf("live sessions = %d, want 1: %s", len(sessions), truncate(body, 300))
	}
	if s := sessions[0]; s.Tenant != "alice" || s.View != "fragment" {
		t.Errorf("session = %+v, want tenant alice on view fragment", s)
	}
	if rem := sessions[0].DeadlineRemainingMS; rem <= 0 || rem > 30_000 {
		t.Errorf("deadline_remaining_ms = %d, want in (0, 30000]", rem)
	}

	// /tenants shows alice one-in-flight with one concurrency rejection.
	resp, err = http.Get(ts.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var states []TenantState
	if err := json.Unmarshal(body, &states); err != nil {
		t.Fatalf("tenants JSON: %v: %s", err, truncate(body, 200))
	}
	var alice *TenantState
	for i := range states {
		if states[i].Tenant == "alice" {
			alice = &states[i]
		}
	}
	if alice == nil {
		t.Fatalf("alice missing from /tenants: %s", truncate(body, 300))
	}
	if alice.InFlight != 1 || alice.RejectedConcurrency != 1 || alice.MaxConcurrent != 1 {
		t.Errorf("alice state = %+v, want in_flight 1, rejected_concurrency 1, max_concurrent 1", *alice)
	}

	close(gate)
	if err := <-parked; err != nil {
		t.Errorf("parked stream: %v", err)
	}
}

// TestBudgetHeaderAdmission: an unparsable budget is a 400, a budget that
// cannot possibly be met is a 504 before any slot or stream is taken, and
// a generous budget serves normally.
func TestBudgetHeaderAdmission(t *testing.T) {
	db, goldens := fixture(t)
	var streams atomic.Int64
	srv := New(Config{
		Registry: newRegistry(t, db),
		Hooks:    Hooks{StreamStarted: func(*Session) { streams.Add(1) }},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(budget string) (*http.Response, []byte) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/views/fragment", nil)
		req.Header.Set(HeaderBudget, budget)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	if resp, _ := get("soon"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed budget: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get("1us"); resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("spent budget: status %d, want 504", resp.StatusCode)
	}
	if got := streams.Load(); got != 0 {
		t.Errorf("%d streams started for unservable budgets, want 0", got)
	}
	if got := srv.LiveSessions(); got != 0 {
		t.Errorf("LiveSessions = %d after pre-admission refusals, want 0", got)
	}
	resp, body := get("30s")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, goldens["fragment"]) {
		t.Errorf("generous budget: status %d, %d bytes; want 200 with golden", resp.StatusCode, len(body))
	}
	if got := streams.Load(); got != 1 {
		t.Errorf("streams = %d after one served request, want 1", got)
	}
}

// TestAPIKeyOutranksTenantHeader: a recognized API key pins the identity
// even when the header claims otherwise; an unrecognized key falls back to
// the header rather than rejecting.
func TestAPIKeyOutranksTenantHeader(t *testing.T) {
	db, _ := fixture(t)
	srv := New(Config{
		Registry: newRegistry(t, db),
		APIKeys:  map[string]string{"sk-alice": "alice"},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, key, header, want string
	}{
		{"key wins over header", "sk-alice", "mallory", "alice"},
		{"unrecognized key ignored", "sk-bogus", "carol", "carol"},
		{"header alone", "", "carol", "carol"},
		{"nothing at all", "", "", DefaultTenant},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/views/fragment", nil)
		if c.key != "" {
			req.Header.Set("X-Api-Key", c.key)
		}
		if c.header != "" {
			req.Header.Set(HeaderTenant, c.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get(HeaderTenant); got != c.want {
			t.Errorf("%s: resolved tenant %q, want %q", c.name, got, c.want)
		}
	}
}

// TestDrainConcurrentWithAdmitBurst races graceful shutdown against a
// burst of fresh admissions: every stream admitted before the listener
// closes must run to its last byte (any 200 is the complete golden
// document), later arrivals get transport errors, and the drain still
// completes. No response may ever be a syntactically plausible truncated
// document.
func TestDrainConcurrentWithAdmitBurst(t *testing.T) {
	db, goldens := fixture(t)
	gate := make(chan struct{})
	const parkedStreams = 2
	var seq atomic.Int64
	admitted := make(chan struct{}, parkedStreams)
	srv := New(Config{
		Registry: newRegistry(t, db),
		Hooks: Hooks{StreamStarted: func(*Session) {
			if seq.Add(1) <= parkedStreams {
				admitted <- struct{}{}
				<-gate
			}
		}},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	parked := make(chan error, parkedStreams)
	for i := 0; i < parkedStreams; i++ {
		go func() {
			resp, err := http.Get(base + "/views/fragment")
			if err != nil {
				parked <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err == nil && !bytes.Equal(body, goldens["fragment"]) {
				err = fmt.Errorf("parked stream diverged from golden")
			}
			parked <- err
		}()
		<-admitted
	}

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdown <- srv.Shutdown(ctx)
	}()

	// The burst lands while the listener is somewhere between open and
	// closed: each request either completes byte-identically (admitted in
	// time) or fails at the transport / with an error status — never with
	// a 200 wrapping a short document.
	const burst = 12
	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	var wg sync.WaitGroup
	burstErrs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(base + "/views/fragment")
			if err != nil {
				return // refused at the closed listener: correct drain behavior
			}
			defer resp.Body.Close()
			body, rerr := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				return // explicit refusal (503 &c): also fine
			}
			if rerr != nil {
				burstErrs <- fmt.Errorf("200 stream truncated mid-body: %v", rerr)
				return
			}
			if !bytes.Equal(body, goldens["fragment"]) {
				burstErrs <- fmt.Errorf("200 delivered a non-golden document (%d bytes)", len(body))
			}
		}()
	}
	wg.Wait()
	close(burstErrs)
	for err := range burstErrs {
		t.Error(err)
	}

	close(gate)
	for i := 0; i < parkedStreams; i++ {
		if err := <-parked; err != nil {
			t.Errorf("parked stream %d: %v", i, err)
		}
	}
	if err := <-shutdown; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestServeStaleDegradation: with every replica down, an opted-in server
// answers a warmed view with the complete cached document flagged by the
// staleness headers — and fails closed, headers withdrawn, for a view with
// no cached entry.
func TestServeStaleDegradation(t *testing.T) {
	db, goldens := fixture(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	sctx, scancel := context.WithCancel(context.Background())
	backendDone := make(chan struct{})
	go func() {
		db.ServeContext(sctx, l)
		close(backendDone)
	}()
	stopBackend := func() {
		scancel()
		l.Close()
		<-backendDone
	}
	defer stopBackend()

	opts := []silkroute.Option{
		silkroute.WithSource(silkroute.TPCHSourceDescription()),
		silkroute.WithBreaker(1, time.Hour),
		silkroute.WithFragmentCache(-1),
		silkroute.WithStrategy(silkroute.Unified),
	}
	remote, err := silkroute.Dial(silkroute.Replicas(l.Addr().String()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	reg := NewRegistry()
	for name, src := range map[string]string{"fragment": rxl.FragmentSource, "cold": rxl.Query1Source} {
		h, err := Compile(name, remote, src, opts...)
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(name, h, src, "test")
	}
	srv := New(Config{Registry: reg, ServeStale: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the fragment view: a fresh 200, no staleness marker.
	resp, err := http.Get(ts.URL + "/views/fragment")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, goldens["fragment"]) {
		t.Fatalf("warmup: status %d, %d bytes; want 200 with golden", resp.StatusCode, len(body))
	}
	if resp.Header.Get(HeaderStale) != "" {
		t.Fatalf("fresh response carries %s", HeaderStale)
	}

	stopBackend()

	// With the backend gone the breaker opens after the first failed
	// attempt; from then on the warmed view must serve its complete cached
	// document, explicitly flagged.
	var stale *http.Response
	var staleBody []byte
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/views/fragment")
		if err != nil {
			t.Fatal(err)
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			t.Fatalf("stale probe read: %v", rerr)
		}
		if resp.StatusCode == http.StatusOK {
			stale, staleBody = resp, body
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if stale == nil {
		t.Fatal("no stale 200 within 10s of backend death")
	}
	if got := stale.Header.Get(HeaderStale); got != "true" {
		t.Errorf("%s = %q, want true", HeaderStale, got)
	}
	if stale.Header.Get(HeaderStaleAge) == "" {
		t.Errorf("stale response lacks %s", HeaderStaleAge)
	}
	if !bytes.Equal(staleBody, goldens["fragment"]) {
		t.Errorf("stale document differs from the last validated materialization (%d vs %d bytes)",
			len(staleBody), len(goldens["fragment"]))
	}

	// The never-warmed view has nothing validated to fall back on: it must
	// fail closed — an error status, no staleness headers, no document.
	resp, err = http.Get(ts.URL + "/views/cold")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("cold view served 200 with no cached entry and no backend")
	}
	if resp.Header.Get(HeaderStale) != "" || resp.Header.Get(HeaderStaleAge) != "" {
		t.Error("failed-closed response carries staleness headers")
	}
}

// TestWriteStaleFailClosedAfterInvalidation pins the boundary the handler
// relies on: once a base-table write has invalidated the cached entry,
// WriteStale writes nothing at all — it can never emit part of a stale
// document, so a response is always entirely fresh or entirely the last
// validated snapshot. A write does not drop the entry by itself: the next
// lookup's stamp check does, and a materialization that then fails caches
// nothing in its place.
func TestWriteStaleFailClosedAfterInvalidation(t *testing.T) {
	db := silkroute.OpenTPCH(0.001, 7)
	h, err := silkroute.NewHandle("fragment", db, rxl.FragmentSource, silkroute.WithFragmentCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	var golden bytes.Buffer
	if _, err := h.Materialize(context.Background(), &golden); err != nil {
		t.Fatal(err)
	}

	if _, ok := h.View().StaleEntry(); !ok {
		t.Fatal("no stale entry after a successful materialization")
	}
	var buf bytes.Buffer
	rep, ok, err := h.View().WriteStale(&buf)
	if !ok || err != nil {
		t.Fatalf("WriteStale = (ok=%v, err=%v), want served", ok, err)
	}
	if !rep.ServedStale || rep.StaleAge < 0 {
		t.Errorf("Report = %+v, want ServedStale with non-negative age", rep)
	}
	if !bytes.Equal(buf.Bytes(), golden.Bytes()) {
		t.Error("stale document differs from the materialization that populated it")
	}

	// Write to a base table the view reads, then materialize into a writer
	// that fails: the stamp check drops the entry, and the failed cold run
	// must not cache anything. From then on the stale path must produce
	// zero bytes, not a partial.
	if err := db.Insert("Supplier", 9999, "zz-new-supplier", "nowhere", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Materialize(context.Background(), failingWriter{}); err == nil {
		t.Fatal("materialization into a failing writer succeeded")
	}
	if _, ok := h.View().StaleEntry(); ok {
		t.Error("StaleEntry still offered after invalidation")
	}
	var after bytes.Buffer
	if _, ok, _ := h.View().WriteStale(&after); ok {
		t.Error("WriteStale served after invalidation")
	}
	if after.Len() != 0 {
		t.Errorf("WriteStale leaked %d bytes after invalidation, want 0", after.Len())
	}
}

// failingWriter refuses every write, like a client that hung up.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client gone") }

// TestTenantNamesCapped sends maxTenants+100 distinct tenant names. The
// first maxTenants keep their own accounting; each later one is accounted,
// labelled and echoed as the one overflow tenant. Names the config
// declares, a name already seen and the default tenant still resolve to
// themselves, so /tenants and the per-tenant series stay bounded.
func TestTenantNamesCapped(t *testing.T) {
	old := obs.M()
	obs.SetGlobal(obs.NewMetrics())
	defer obs.SetGlobal(old)
	db, goldens := fixture(t)
	reg := NewRegistry()
	h, err := Compile("fragment", db, rxl.FragmentSource, silkroute.WithFragmentCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	reg.Register("fragment", h, rxl.FragmentSource, "test")
	handler := New(Config{
		Registry: reg,
		Tenants:  map[string]TenantLimits{"acme": {MaxConcurrent: 3}},
		APIKeys:  map[string]string{"sk-batch": "batch"},
	}).Handler()
	serve := func(path string, hdr ...string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec
	}
	resolve := func(hdr ...string) string {
		rec := serve("/views/fragment", hdr...)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), goldens["fragment"]) {
			t.Fatalf("%v: status %d, %d bytes; want 200 with the golden", hdr, rec.Code, rec.Body.Len())
		}
		return rec.Header().Get(HeaderTenant)
	}

	for i := 0; i < maxTenants+100; i++ {
		name := fmt.Sprintf("t%04d", i)
		want := name
		if i >= maxTenants {
			want = overflowTenant
		}
		if got := resolve(HeaderTenant, name); got != want {
			t.Fatalf("tenant %s resolved to %q, want %q", name, got, want)
		}
	}
	for _, c := range []struct {
		hdr  []string
		want string
	}{
		{[]string{HeaderTenant, "acme"}, "acme"},
		{[]string{"X-Api-Key", "sk-batch"}, "batch"},
		{[]string{HeaderTenant, "t0000"}, "t0000"},
		{nil, DefaultTenant},
	} {
		if got := resolve(c.hdr...); got != c.want {
			t.Errorf("%v resolved to %q past the cap, want %q", c.hdr, got, c.want)
		}
	}

	var states []TenantState
	if err := json.Unmarshal(serve("/tenants").Body.Bytes(), &states); err != nil {
		t.Fatal(err)
	}
	if want := maxTenants + 4; len(states) != want {
		t.Errorf("/tenants lists %d tenants, want %d (the capped names, overflow, acme, batch, default)", len(states), want)
	}
	for _, s := range states {
		if s.Tenant == "acme" && s.MaxConcurrent != 3 {
			t.Errorf("acme state %+v lost its configured limits", s)
		}
	}
	scrape := serve("/metrics").Body.String()
	if err := obstest.CheckExposition(scrape); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(scrape, "silkroute_http_tenant_requests_total{"), maxTenants+4; got != want {
		t.Errorf("%d tenant request series, want %d", got, want)
	}
	if want := fmt.Sprintf("silkroute_http_tenant_requests_total{tenant=%q} 100\n", overflowTenant); !strings.Contains(scrape, want) {
		t.Errorf("scrape lacks %q", want)
	}
}
