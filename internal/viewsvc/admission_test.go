// Tests for the admission accounting itself: which refusal charges a
// tenant's token, that no refusal leaves a session or an in-flight count
// behind, and that concurrent admissions never exceed the server-wide or a
// tenant's concurrency limit.
package viewsvc

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// getTenant requests the fragment view as tenant and returns the status
// and Retry-After header once the body is drained.
func getTenant(t *testing.T, c *http.Client, base, tenant string) (int, string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, base+"/views/fragment", nil)
	req.Header.Set(HeaderTenant, tenant)
	resp, err := c.Do(req)
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Error(err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// getJSON decodes a GET of base+path into v.
func getJSON(t *testing.T, base, path string, v any) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// tenantStates reads /tenants keyed by tenant name.
func tenantStates(t *testing.T, base string) map[string]TenantState {
	t.Helper()
	var list []TenantState
	getJSON(t, base, "/tenants", &list)
	out := make(map[string]TenantState, len(list))
	for _, s := range list {
		out[s.Tenant] = s
	}
	return out
}

// checkRetryAfter wants a whole number of seconds, at least 1.
func checkRetryAfter(t *testing.T, status int, ra string) {
	t.Helper()
	if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Errorf("status %d carries Retry-After %q, want >= 1 second", status, ra)
	}
}

// waitDrained waits until no session is live, then wants /sessions empty
// and every tenant's in_flight zero.
func waitDrained(t *testing.T, srv *Server, base string) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); srv.LiveSessions() != 0 && time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.LiveSessions(); n != 0 {
		t.Errorf("LiveSessions = %d after the drain, want 0", n)
	}
	var sessions []Session
	getJSON(t, base, "/sessions", &sessions)
	if len(sessions) != 0 {
		t.Errorf("/sessions lists %d sessions after the drain, want 0", len(sessions))
	}
	for name, s := range tenantStates(t, base) {
		if s.InFlight != 0 {
			t.Errorf("tenant %s in_flight = %d after the drain, want 0", name, s.InFlight)
		}
	}
}

// TestAdmissionRefusalCharges pins what a refusal costs the refused
// tenant, read through /tenants while one stream is parked: a 429 for
// the tenant's own concurrency quota takes no token, and a 503 for the
// server-wide limit, reached after the tenant's checks passed, takes one.
// Neither leaves a session or an in-flight count behind.
func TestAdmissionRefusalCharges(t *testing.T) {
	db, _ := fixture(t)
	cases := []struct {
		name        string
		max         int
		tenants     map[string]TenantLimits
		park, probe string // the parked stream's tenant, the refused one's
		status      int
		spent       float64 // tokens the refusal takes from probe
	}{
		{"tenant concurrency 429 takes no token", 4,
			map[string]TenantLimits{"p": {Rate: 0.001, Burst: 3, MaxConcurrent: 1}},
			"p", "p", http.StatusTooManyRequests, 0},
		{"global 503 after the tenant passed takes one token", 1,
			map[string]TenantLimits{"p": {Rate: 0.001, Burst: 3}, "q": {Rate: 0.001, Burst: 3}},
			"q", "p", http.StatusServiceUnavailable, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var parking atomic.Bool
			admitted, gate := make(chan struct{}, 1), make(chan struct{})
			srv := New(Config{
				Registry: newRegistry(t, db),
				Limits:   Limits{MaxConcurrent: c.max},
				Tenants:  c.tenants,
				Hooks: Hooks{StreamStarted: func(*Session) {
					if parking.Swap(false) {
						admitted <- struct{}{}
						<-gate
					}
				}},
			})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			release := sync.OnceFunc(func() { close(gate) })
			defer release() // before ts.Close, which waits for the parked stream

			// One served request lists the probe tenant in /tenants.
			if status, _ := getTenant(t, http.DefaultClient, ts.URL, c.probe); status != http.StatusOK {
				t.Fatalf("warm-up as %s: status %d, want 200", c.probe, status)
			}
			parking.Store(true)
			parked := make(chan int, 1)
			go func() {
				status, _ := getTenant(t, http.DefaultClient, ts.URL, c.park)
				parked <- status
			}()
			<-admitted

			before := tenantStates(t, ts.URL)[c.probe]
			status, ra := getTenant(t, http.DefaultClient, ts.URL, c.probe)
			if status != c.status {
				t.Fatalf("probe as %s: status %d, want %d", c.probe, status, c.status)
			}
			checkRetryAfter(t, status, ra)
			after := tenantStates(t, ts.URL)[c.probe]
			if got := before.Tokens - after.Tokens; math.Abs(got-c.spent) > 0.01 {
				t.Errorf("the %d took %.3f tokens (%.3f → %.3f), want %v",
					status, got, before.Tokens, after.Tokens, c.spent)
			}
			wantInFlight := 0
			if c.park == c.probe {
				wantInFlight = 1
			}
			if after.InFlight != wantInFlight {
				t.Errorf("%s in_flight = %d after the refusal, want %d (the parked stream only)",
					c.probe, after.InFlight, wantInFlight)
			}
			var sessions []Session
			getJSON(t, ts.URL, "/sessions", &sessions)
			if len(sessions) != 1 || sessions[0].Tenant != c.park {
				t.Errorf("/sessions = %+v, want only the parked %s stream", sessions, c.park)
			}

			release()
			if status := <-parked; status != http.StatusOK {
				t.Errorf("parked stream: status %d, want 200", status)
			}
			waitDrained(t, srv, ts.URL)
		})
	}
}

// TestAdmissionHammer offers 4×MaxConcurrent concurrent requests over two
// tenants whose quotas sum past MaxConcurrent, round after round, every
// admitted stream parked until the round's refusals are in. Live sessions
// never exceed MaxConcurrent nor a tenant its quota, exactly
// MaxConcurrent are admitted each round, every 429 and 503 carries a
// Retry-After of at least a second, and once the rounds drain nothing is
// live and no tenant holds an in-flight count.
func TestAdmissionHammer(t *testing.T) {
	db, _ := fixture(t)
	const max, rounds = 4, 10
	quota := map[string]int{"a": 2, "b": 3}

	var (
		mu       sync.Mutex
		gate     chan struct{}
		held     = make(map[string]int)
		srv      *Server
		admitted = make(chan struct{}, 4*max)
	)
	srv = New(Config{
		Registry: newRegistry(t, db),
		Limits:   Limits{MaxConcurrent: max},
		Tenants:  map[string]TenantLimits{"a": {MaxConcurrent: quota["a"]}, "b": {MaxConcurrent: quota["b"]}},
		Hooks: Hooks{StreamStarted: func(s *Session) {
			mu.Lock()
			held[s.Tenant]++
			if held[s.Tenant] > quota[s.Tenant] {
				t.Errorf("tenant %s holds %d streams, quota %d", s.Tenant, held[s.Tenant], quota[s.Tenant])
			}
			if n := srv.LiveSessions(); n > max {
				t.Errorf("%d live sessions, MaxConcurrent %d", n, max)
			}
			g := gate
			mu.Unlock()
			admitted <- struct{}{}
			<-g
			mu.Lock()
			held[s.Tenant]--
			mu.Unlock()
		}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * max}}
	defer client.CloseIdleConnections()
	release := func() {}
	defer func() { release() }() // before ts.Close, which waits for parked streams

	type result struct{ status int }
	for round := 0; round < rounds; round++ {
		mu.Lock()
		g := make(chan struct{})
		gate = g
		mu.Unlock()
		release = sync.OnceFunc(func() { close(g) })
		results := make(chan result, 4*max)
		for i := 0; i < 4*max; i++ {
			tenant := []string{"a", "b"}[i%2]
			go func() {
				status, ra := getTenant(t, client, ts.URL, tenant)
				if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
					checkRetryAfter(t, status, ra)
				}
				results <- result{status}
			}()
		}

		var in, refused int
		timeout := time.After(30 * time.Second)
		for in+refused < 4*max {
			select {
			case <-admitted:
				in++
			case r := <-results:
				if r.status != http.StatusTooManyRequests && r.status != http.StatusServiceUnavailable {
					t.Fatalf("round %d: status %d before the gate opened, want 429 or 503", round, r.status)
				}
				refused++
			case <-timeout:
				t.Fatalf("round %d: %d admitted and %d refused of %d after 30s", round, in, refused, 4*max)
			}
		}
		if in != max {
			t.Errorf("round %d: %d admitted, want MaxConcurrent = %d", round, in, max)
		}
		if n := srv.LiveSessions(); n != in {
			t.Errorf("round %d: LiveSessions = %d with %d parked", round, n, in)
		}
		for name, s := range tenantStates(t, ts.URL) {
			if q, ok := quota[name]; ok && s.InFlight > q {
				t.Errorf("round %d: tenant %s in_flight %d over quota %d", round, name, s.InFlight, q)
			}
		}

		release()
		for i := 0; i < in; i++ {
			if r := <-results; r.status != http.StatusOK {
				t.Errorf("round %d: parked stream status %d, want 200", round, r.status)
			}
		}
	}
	waitDrained(t, srv, ts.URL)
}

// TestAdmissionAnyTenantLimits: the Tenants entry "*" limits every tenant
// without an entry of its own — the anonymous DefaultTenant, an API-key
// tenant and an undeclared name alike — while a named tenant keeps its own
// limits, and "*" itself never becomes a tenant or a /tenants row: a
// request naming it is the anonymous tenant's.
func TestAdmissionAnyTenantLimits(t *testing.T) {
	db, _ := fixture(t)
	srv := New(Config{
		Registry: newRegistry(t, db),
		Tenants: map[string]TenantLimits{
			"*":    {Rate: 0.001, Burst: 1},
			"acme": {Rate: 0.001, Burst: 3},
		},
		APIKeys: map[string]string{"sk-keyed": "keyed"},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	keyed := func() int {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/views/fragment", nil)
		req.Header.Set("X-Api-Key", "sk-keyed")
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		who  string
		get  func() int
		want []int
	}{
		{"anonymous", func() int { s, _ := getTenant(t, c, ts.URL, ""); return s }, []int{200, 429}},
		{"*", func() int { s, _ := getTenant(t, c, ts.URL, "*"); return s }, []int{429}},
		{"stranger", func() int { s, _ := getTenant(t, c, ts.URL, "stranger"); return s }, []int{200, 429}},
		{"keyed", keyed, []int{200, 429}},
		{"acme", func() int { s, _ := getTenant(t, c, ts.URL, "acme"); return s }, []int{200, 200, 200, 429}},
	} {
		for i, want := range tc.want {
			if got := tc.get(); got != want {
				t.Errorf("%s request %d: status %d, want %d", tc.who, i+1, got, want)
			}
		}
	}

	states := tenantStates(t, ts.URL)
	if _, ok := states["*"]; ok {
		t.Error(`/tenants lists "*" as a tenant`)
	}
	for name, burst := range map[string]int{DefaultTenant: 1, "stranger": 1, "keyed": 1, "acme": 3} {
		if s, ok := states[name]; !ok || s.Burst != burst {
			t.Errorf("/tenants %s = %+v (listed %v), want burst %d", name, s, ok, burst)
		}
	}
}
