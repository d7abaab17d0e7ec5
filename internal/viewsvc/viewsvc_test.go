// Tests for the view service: byte-identity against direct Materialize,
// admission control (503 + Retry-After at saturation), graceful drain
// through Shutdown and ServeContext (in-flight streams complete, new
// requests refused), view-dir loading
// with positioned diagnostics, the admin surface, and the fail-closed
// limit paths.
package viewsvc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"silkroute"
	"silkroute/internal/obs"
	"silkroute/internal/obs/obstest"
	"silkroute/internal/rxl"
)

var (
	fixtureOnce    sync.Once
	fixtureDB      *silkroute.DB
	fixtureGoldens map[string][]byte
)

// fixture returns a shared small TPC-H database and the direct-Materialize
// golden documents for the built-in views — computed once, because the
// byte-identity assertions all judge against the same reference.
func fixture(t *testing.T) (*silkroute.DB, map[string][]byte) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureDB = silkroute.OpenTPCH(0.001, 42)
		fixtureGoldens = make(map[string][]byte)
		for name, src := range map[string]string{
			"fragment": rxl.FragmentSource,
			"q1":       rxl.Query1Source,
			"q2":       rxl.Query2Source,
		} {
			h, err := silkroute.NewHandle(name, fixtureDB, src)
			if err != nil {
				panic(err)
			}
			var buf bytes.Buffer
			if _, err := h.Materialize(context.Background(), &buf); err != nil {
				panic(err)
			}
			fixtureGoldens[name] = buf.Bytes()
		}
	})
	return fixtureDB, fixtureGoldens
}

// newRegistry registers the fixture views on a fresh registry.
func newRegistry(t *testing.T, db *silkroute.DB) *Registry {
	t.Helper()
	reg := NewRegistry()
	for name, src := range map[string]string{
		"fragment": rxl.FragmentSource,
		"q1":       rxl.Query1Source,
	} {
		h, err := Compile(name, db, src)
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(name, h, src, "test")
	}
	return reg
}

func TestServeViewMatchesDirectMaterialize(t *testing.T) {
	db, goldens := fixture(t)
	srv := New(Config{Registry: newRegistry(t, db)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/views/fragment")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "application/xml") {
		t.Errorf("Content-Type = %q, want application/xml", got)
	}
	if got := resp.Header.Get("Silkroute-Strategy"); got != "greedy" {
		t.Errorf("Silkroute-Strategy = %q, want default greedy", got)
	}
	if !bytes.Equal(body, goldens["fragment"]) {
		t.Errorf("served document differs from direct Materialize (%d vs %d bytes)",
			len(body), len(goldens["fragment"]))
	}
}

func TestStrategyOverride(t *testing.T) {
	db, goldens := fixture(t)
	srv := New(Config{Registry: newRegistry(t, db)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/views/fragment?strategy=unified")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %s", resp.Status, body)
	}
	if got := resp.Header.Get("Silkroute-Strategy"); got != "unified" {
		t.Errorf("Silkroute-Strategy = %q, want unified", got)
	}
	// Every strategy materializes the same document, so the override must
	// still be byte-identical to the golden.
	if !bytes.Equal(body, goldens["fragment"]) {
		t.Error("unified override produced a different document")
	}

	resp, err = http.Get(ts.URL + "/views/fragment?strategy=bogus")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus strategy: status %d, want 400", resp.StatusCode)
	}
}

func TestUnknownAndBrokenViews(t *testing.T) {
	db, _ := fixture(t)
	reg := newRegistry(t, db)
	reg.RegisterBroken("cracked", fmt.Errorf("views/cracked.rxl:3:7: unexpected character '^'"), "", "views/cracked.rxl")
	srv := New(Config{Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/views/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown view: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/views/cracked")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("broken view: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "cracked.rxl:3:7") {
		t.Errorf("broken-view response lacks the positioned diagnostic: %q", body)
	}
}

// TestSaturationRejectsWith503RetryAfter is the admission-control contract:
// park MaxConcurrent streams on a gate, and the next request must bounce
// immediately with 503 and a Retry-After hint — while the parked stream
// still completes byte-identically once released.
func TestSaturationRejectsWith503RetryAfter(t *testing.T) {
	db, goldens := fixture(t)
	gate := make(chan struct{})
	admitted := make(chan struct{}, 1)
	srv := New(Config{
		Registry: newRegistry(t, db),
		Limits:   Limits{MaxConcurrent: 1},
		Hooks: Hooks{StreamStarted: func(*Session) {
			admitted <- struct{}{}
			<-gate
		}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	parked := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/views/fragment")
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
	if got := srv.LiveSessions(); got != 1 {
		t.Errorf("LiveSessions = %d, want 1", got)
	}

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/views/fragment")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("saturated request %d: status %d, want 503", i, resp.StatusCode)
		}
		// The hint is drain-derived: the one live session is milliseconds
		// old, so the estimate clamps up to the 1-second floor.
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Errorf("Retry-After = %q, want %q", got, "1")
		}
	}

	close(gate)
	if err := <-parked; err != nil {
		t.Errorf("parked stream: %v", err)
	}
	if got := srv.LiveSessions(); got != 0 {
		t.Errorf("LiveSessions after completion = %d, want 0", got)
	}
}

// TestGracefulDrainCompletesInFlight is the shutdown contract: with streams
// parked mid-flight, a drain must refuse new requests at the listener
// while every admitted stream runs to its last byte — byte-identical to
// the direct materialization, never truncated. The drain starts either by
// Shutdown, after which Serve returns http.ErrServerClosed, or by
// cancelling ServeContext's context, the path silkrouted's SIGTERM handler
// takes, after which ServeContext returns nil.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	for _, viaContext := range []bool{false, true} {
		t.Run(map[bool]string{false: "Shutdown", true: "ServeContext"}[viaContext], func(t *testing.T) {
			db, goldens := fixture(t)
			gate := make(chan struct{})
			const inFlight = 2
			admitted := make(chan struct{}, inFlight)
			srv := New(Config{
				Registry: newRegistry(t, db),
				Hooks: Hooks{StreamStarted: func(*Session) {
					admitted <- struct{}{}
					<-gate
				}},
			})
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			served := make(chan error, 1)
			wantServed := http.ErrServerClosed
			if viaContext {
				wantServed = nil
				go func() { served <- srv.ServeContext(ctx, l, 30*time.Second) }()
			} else {
				go func() { served <- srv.Serve(l) }()
			}
			base := "http://" + l.Addr().String()

			results := make(chan error, inFlight)
			for i := 0; i < inFlight; i++ {
				go func() {
					res, err := fetch(http.DefaultClient, base+"/views/fragment")
					if err == nil && (res.status != http.StatusOK || !bytes.Equal(res.body, goldens["fragment"])) {
						err = fmt.Errorf("status %d, %d bytes; want 200 with the %d-byte golden",
							res.status, len(res.body), len(goldens["fragment"]))
					}
					results <- err
				}()
				<-admitted
			}

			shutdown := make(chan error, 1)
			if viaContext {
				cancel()
				shutdown <- nil
			} else {
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					shutdown <- srv.Shutdown(ctx)
				}()
			}

			// The listener must close promptly: a fresh connection gets a
			// transport error, not a queued slot.
			refused := false
			probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				resp, err := probe.Get(base + "/healthz")
				if err != nil {
					refused = true
					break
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				time.Sleep(10 * time.Millisecond)
			}
			if !refused {
				t.Error("new requests were still accepted during drain")
			}

			close(gate)
			for i := 0; i < inFlight; i++ {
				if err := <-results; err != nil {
					t.Errorf("in-flight stream %d: %v", i, err)
				}
			}
			if err := <-shutdown; err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			select {
			case err := <-served:
				if err != wantServed {
					t.Errorf("serving returned %v, want %v", err, wantServed)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("serving did not return after the drain")
			}
		})
	}
}

func TestLoadDirPositionsErrorsAndDegradesPerView(t *testing.T) {
	db, goldens := fixture(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "good.rxl"), []byte(rxl.FragmentSource), 0o644); err != nil {
		t.Fatal(err)
	}
	// The caret on line 2 is the parse error; its file:line:col must
	// survive into the served diagnostic.
	bad := "from Supplier $s\nwhere $s.name ^ 3\nconstruct <x>$s.name</x>\n"
	if err := os.WriteFile(filepath.Join(dir, "bad.rxl"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	ok, broken, err := reg.LoadDir(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	if ok != 1 || broken != 1 {
		t.Fatalf("LoadDir = (%d ok, %d broken), want (1, 1)", ok, broken)
	}
	_, berr, found := reg.Lookup("bad")
	if !found || berr == nil {
		t.Fatal("bad view not registered as broken")
	}
	if want := "bad.rxl:2:15"; !strings.Contains(berr.Error(), want) {
		t.Errorf("broken diagnostic %q lacks %q", berr, want)
	}

	// One bad file degrades that one name; the good view serves normally.
	srv := New(Config{Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/views/good")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, goldens["fragment"]) {
		t.Errorf("good view: status %d, %d bytes; want 200 with the fragment golden", resp.StatusCode, len(body))
	}
	resp, err = http.Get(ts.URL + "/views/bad")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("bad view: status %d, want 503", resp.StatusCode)
	}

	// A mistyped directory is a dir-level error, not an empty registry.
	if _, _, err := NewRegistry().LoadDir(filepath.Join(dir, "no-such"), db); err == nil {
		t.Error("LoadDir on a missing directory reported no error")
	}
	// An existing-but-empty directory is fine: zero views, no error.
	if ok, broken, err := NewRegistry().LoadDir(t.TempDir(), db); ok != 0 || broken != 0 || err != nil {
		t.Errorf("LoadDir on empty dir = (%d, %d, %v), want (0, 0, nil)", ok, broken, err)
	}
}

func TestAdminRegistration(t *testing.T) {
	db, _ := fixture(t)
	srv := New(Config{
		Registry: NewRegistry(),
		Admin:    true,
		Backend:  db,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	put := func(name, src string) *http.Response {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/views/"+name, strings.NewReader(src))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	src := "from Supplier $s\nconstruct <supplier><name>$s.name</name></supplier>\n"
	resp := put("suppliers", src)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first PUT: status %d, want 201", resp.StatusCode)
	}
	resp = put("suppliers", src)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("replacing PUT: status %d, want 200", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/views/suppliers")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("<supplier>")) {
		t.Errorf("registered view did not serve: status %d, %q…", resp.StatusCode, truncate(body, 60))
	}

	// A definition that fails to parse answers 400 with a line:column
	// diagnostic and registers nothing.
	resp = put("broken", "from Supplier $s\nwhere $s.name ^ 3\nconstruct <x/>\n")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad PUT: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "2:15") {
		t.Errorf("bad PUT diagnostic lacks line:col: %q", body)
	}
	if _, _, found := srv.cfg.Registry.Lookup("broken"); found {
		t.Error("failed PUT still registered the view")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/views/suppliers", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE: status %d, want 204", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/views/suppliers")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET after DELETE: status %d, want 404", resp.StatusCode)
	}
}

func TestAdminDisabledByDefault(t *testing.T) {
	db, _ := fixture(t)
	srv := New(Config{Registry: newRegistry(t, db)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/views/x", strings.NewReader("from Supplier $s\nconstruct <x/>\n"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		t.Errorf("PUT succeeded (%d) with Admin disabled", resp.StatusCode)
	}
}

// TestMaxResponseBytesFailsClosed: a response that would exceed the byte
// budget must never be delivered as a syntactically complete document — a
// pre-byte breach is a clean 500, a mid-stream breach kills the connection.
func TestMaxResponseBytesFailsClosed(t *testing.T) {
	db, goldens := fixture(t)

	// Budget below the first flush: the stream fails before any byte
	// leaves, so the client sees a clean 500.
	srv := New(Config{
		Registry: newRegistry(t, db),
		Limits:   Limits{MaxResponseBytes: 10},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/views/fragment")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("pre-byte breach: status %d, want 500", resp.StatusCode)
	}

	// Budget past the first 32 KiB chunk but short of the document: bytes
	// are on the wire when the breach hits, so the connection must die —
	// the client reads a transport error, not a complete body.
	doc := goldens["q1"]
	if len(doc) <= streamBufBytes+1024 {
		t.Skipf("q1 document too small (%d bytes) to breach mid-stream", len(doc))
	}
	srv2 := New(Config{
		Registry: newRegistry(t, db),
		Limits:   Limits{MaxResponseBytes: streamBufBytes + 512},
	})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/views/q1")
	if err != nil {
		return // connection may die before headers; also fail-closed
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr == nil {
		t.Fatalf("mid-stream breach delivered a complete response (%d bytes, status %d)", len(body), resp.StatusCode)
	}
	if bytes.Equal(body, doc) {
		t.Error("mid-stream breach delivered the full document")
	}
}

func TestRequestTimeoutAnswers504(t *testing.T) {
	db, _ := fixture(t)
	srv := New(Config{
		Registry: newRegistry(t, db),
		Limits:   Limits{RequestTimeout: 30 * time.Millisecond},
		// Park past the deadline before planning starts, so the breach is
		// deterministic and happens before any byte is written.
		Hooks: Hooks{StreamStarted: func(*Session) { time.Sleep(80 * time.Millisecond) }},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/views/fragment")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}
}

func TestListViewsAndSessions(t *testing.T) {
	db, _ := fixture(t)
	srv := New(Config{Registry: newRegistry(t, db)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/views")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"fragment"`, `"q1"`, `"greedy"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("view listing lacks %s: %s", want, truncate(body, 200))
		}
	}
	resp, err = http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != "[]" {
		t.Errorf("idle session listing = %q, want []", body)
	}
}

// TestMetricsSurviveHostileTenantHeader drives the handler's recording
// sites with an isolated sink: one served request under a hostile tenant
// name, one that fails after admission, and one tenant 429. The tenant
// label is taken from the header as sent, and Go's HTTP stack passes a tab
// and a 0xFF byte through, yet the scrape must be valid exposition for
// every scraper. Every inflight gauge must be back to 0, and the global
// series must agree with the per-view and per-tenant ones.
func TestMetricsSurviveHostileTenantHeader(t *testing.T) {
	old := obs.M()
	obs.SetGlobal(obs.NewMetrics())
	defer obs.SetGlobal(old)
	db, goldens := fixture(t)
	reg := newRegistry(t, db)
	srv := New(Config{
		Registry: reg,
		Tenants:  map[string]TenantLimits{"ratey": {Rate: 0.001, Burst: 1}},
		// Park a budgeted request past its deadline before planning, so it
		// fails after admission with nothing written.
		Hooks: Hooks{StreamStarted: func(s *Session) {
			if !s.Deadline.IsZero() {
				time.Sleep(time.Until(s.Deadline) + 20*time.Millisecond)
			}
		}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(path, tenant, budget string) (status, n int) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set(HeaderTenant, tenant)
		if budget != "" {
			req.Header.Set(HeaderBudget, budget)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, len(body)
	}
	doc := len(goldens["fragment"])
	if status, n := get("/views/fragment", "a\tb\xff", ""); status != http.StatusOK || n != doc {
		t.Fatalf("served request: status %d, %d bytes; want 200, %d", status, n, doc)
	}
	if status, _ := get("/views/q1", "ratey", "40ms"); status != http.StatusGatewayTimeout {
		t.Fatalf("request past its budget: status %d, want 504", status)
	}
	if status, _ := get("/views/fragment", "ratey", ""); status != http.StatusTooManyRequests {
		t.Fatalf("drained tenant: status %d, want 429", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := obstest.CheckExposition(string(body)); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
			got[line[:i]] = line[i+1:]
		}
	}
	hostile := "{tenant=\"a\tb\uFFFD\"}"
	for series, want := range map[string]any{
		"silkroute_http_requests_total":        2,
		"silkroute_http_sessions_total":        2,
		"silkroute_http_inflight":              0,
		"silkroute_http_rejected_total":        0,
		"silkroute_http_rejected_tenant_total": 1,

		`silkroute_http_view_requests_total{view="fragment"}`:        1,
		`silkroute_http_view_errors_total{view="fragment"}`:          0,
		`silkroute_http_view_bytes_total{view="fragment"}`:           doc,
		`silkroute_http_view_inflight{view="fragment"}`:              0,
		`silkroute_http_view_request_seconds_count{view="fragment"}`: 1,
		`silkroute_http_view_requests_total{view="q1"}`:              1,
		`silkroute_http_view_errors_total{view="q1"}`:                1,
		`silkroute_http_view_bytes_total{view="q1"}`:                 0,
		`silkroute_http_view_inflight{view="q1"}`:                    0,
		`silkroute_http_view_request_seconds_count{view="q1"}`:       1,

		"silkroute_http_tenant_requests_total" + hostile:       1,
		"silkroute_http_tenant_rejected_total" + hostile:       0,
		"silkroute_http_tenant_bytes_total" + hostile:          doc,
		"silkroute_http_tenant_inflight" + hostile:             0,
		`silkroute_http_tenant_requests_total{tenant="ratey"}`: 1,
		`silkroute_http_tenant_rejected_total{tenant="ratey"}`: 1,
		`silkroute_http_tenant_bytes_total{tenant="ratey"}`:    0,
		`silkroute_http_tenant_inflight{tenant="ratey"}`:       0,
	} {
		if got[series] != fmt.Sprint(want) {
			t.Errorf("%s = %q, want %v", series, got[series], want)
		}
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "…"
}

// TestLoadDirTopologySidecars covers the "<name>.topology" binding: a
// view with a sidecar compiles against a dialed remote and still serves
// the byte-identical document, sibling views naming the same topology
// share one cached backend, and a malformed sidecar degrades its view to
// a broken entry with a file:line:col diagnostic — exactly like a
// malformed RXL file.
func TestLoadDirTopologySidecars(t *testing.T) {
	db, goldens := fixture(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go db.Serve(l)

	dir := t.TempDir()
	topo := l.Addr().String() + "\n"
	for _, name := range []string{"fragment", "fragment2"} {
		if err := os.WriteFile(filepath.Join(dir, name+".rxl"), []byte(rxl.FragmentSource), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".topology"), []byte(topo), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A trailing comma leaves an empty replica address at byte 7 of line 1.
	if err := os.WriteFile(filepath.Join(dir, "broken.rxl"), []byte(rxl.FragmentSource), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.topology"), []byte("a:7070,,b:7070"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	defer reg.Close()
	ok, broken, err := reg.LoadDir(dir, db, silkroute.WithSource(silkroute.TPCHSourceDescription()))
	if err != nil {
		t.Fatal(err)
	}
	if ok != 2 || broken != 1 {
		t.Fatalf("LoadDir = (%d ok, %d broken), want (2, 1)", ok, broken)
	}

	// Both topology-backed views serve the same bytes as the direct run.
	for _, name := range []string{"fragment", "fragment2"} {
		h, herr, found := reg.Lookup(name)
		if !found || herr != nil {
			t.Fatalf("%s: found=%v err=%v", name, found, herr)
		}
		var buf bytes.Buffer
		if _, err := h.Materialize(context.Background(), &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), goldens["fragment"]) {
			t.Errorf("%s: topology-backed document differs from direct Materialize", name)
		}
	}

	// Sibling views naming the same topology share one dialed backend.
	reg.beMu.Lock()
	cached := len(reg.backends)
	reg.beMu.Unlock()
	if cached != 1 {
		t.Errorf("registry cached %d backends, want 1 shared", cached)
	}

	// The malformed sidecar registers broken with a positioned diagnostic.
	_, berr, found := reg.Lookup("broken")
	if !found || berr == nil {
		t.Fatal("broken view not registered as broken")
	}
	if want := "broken.topology:1:8"; !strings.Contains(berr.Error(), want) {
		t.Errorf("broken diagnostic %q lacks %q", berr, want)
	}
	if !strings.Contains(berr.Error(), "empty address") {
		t.Errorf("broken diagnostic %q lacks the parse message", berr)
	}
}
