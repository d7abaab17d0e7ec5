// Command loadgen is the load-test harness for silkrouted: N concurrent
// clients hammering M registered views over HTTP, with every response
// checked byte-for-byte against a direct Materialize of the same view.
// It reports p50/p95/p99 latency overall and per view, and writes a JSON
// summary for CI artifacts.
//
// By default it runs fully in-process — it builds a TPC-H database,
// registers the built-in views under several strategies, starts a viewsvc
// server on a loopback port, and drives it — so `make loadtest` needs no
// running daemon. Three phases run in order:
//
//  1. throughput: N clients × R rounds over every view; every body must
//     equal the direct-Materialize golden byte-for-byte.
//  2. saturation: a second server capped at -sat-concurrent admitted
//     streams, with in-flight streams parked on a gate; the overflow must
//     be refused with 503 + Retry-After, and the parked streams must still
//     complete byte-identically once released.
//  3. drain: streams are parked mid-flight, the process sends itself
//     SIGTERM, and the harness asserts the real signal path: new requests
//     are refused while every in-flight stream completes byte-identically
//     — zero truncated documents.
//
// With -addr the harness instead targets an already-running silkrouted
// (goldens become first-fetch baselines; saturation and drain phases are
// skipped — they require in-process control of the server).
//
// With -overload the standard phases are replaced by the two-tenant
// overload/degradation scenario: offered load at twice the admitted-stream
// cap, split between a tenant inside its quota and one hammering far past
// it, over a two-replica backend whose first replica is chaos-killed
// mid-stream throughout. The in-quota tenant must see only byte-identical
// documents with bounded p99; the abusive tenant must collect 429s with
// Retry-After hints; requests arriving with an already-spent
// Silkroute-Budget must be refused 504 without a single backend query
// (asserted against the engine's query log); and once every replica is
// down, responses must be complete cached documents flagged with
// Silkroute-Stale headers.
//
// Any mismatch, truncation, or failed assertion makes loadgen exit
// nonzero, which is what lets `make loadtest-smoke` and
// `make overload-chaos` gate CI.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"

	"silkroute"
	"silkroute/internal/rxl"
	"silkroute/internal/viewsvc"
)

// builtinViews is the in-process registry: the paper's three views, plus
// strategy variants so the multi-tenant surface exercises distinct plans
// under one roof. Five views comfortably clears the ≥4 the harness is
// meant to prove.
var builtinViews = []struct {
	name     string
	src      string
	strategy silkroute.Strategy
}{
	{"q1", rxl.Query1Source, silkroute.Greedy},
	{"q2", rxl.Query2Source, silkroute.Greedy},
	{"fragment", rxl.FragmentSource, silkroute.Greedy},
	{"q1-unified", rxl.Query1Source, silkroute.Unified},
	{"q2-partitioned", rxl.Query2Source, silkroute.FullyPartitioned},
}

type viewStats struct {
	Requests int     `json:"requests"`
	P50ms    float64 `json:"p50_ms"`
	P99ms    float64 `json:"p99_ms"`
}

type report struct {
	Clients    int     `json:"clients"`
	Rounds     int     `json:"rounds"`
	Views      int     `json:"views"`
	Requests   int     `json:"requests"`
	Mismatches int     `json:"mismatches"`
	Errors     int     `json:"errors"`
	// Rejected429/Rejected503 count admission refusals separately from
	// errors: a refusal is the server doing its job, not a failure — but
	// an operator reading the summary needs to see how much of the
	// offered load was shed, and by which gate (tenant quota vs global
	// saturation).
	Rejected429 int                  `json:"rejected_429"`
	Rejected503 int                  `json:"rejected_503"`
	P50ms       float64              `json:"p50_ms"`
	P95ms       float64              `json:"p95_ms"`
	P99ms       float64              `json:"p99_ms"`
	PerView     map[string]viewStats `json:"per_view"`
	Saturation  *saturationReport    `json:"saturation,omitempty"`
	Drain       *drainReport         `json:"drain,omitempty"`
	Overload    *overloadReport      `json:"overload,omitempty"`
	OK          bool                 `json:"ok"`
}

// overloadReport is the -overload scenario's verdict: one tenant inside
// its quota, one far past it, a chaos-killed replica underneath, plus the
// budget fail-fast and serve-stale assertions.
type overloadReport struct {
	Slots          int     `json:"slots"`
	OfferedClients int     `json:"offered_clients"`
	GoodRequests   int     `json:"good_requests"`
	GoodRejected   int     `json:"good_rejected"`
	GoodErrors     int     `json:"good_errors"`
	GoodMismatches int     `json:"good_mismatches"`
	GoodP99ms      float64 `json:"good_p99_ms"`
	EvilRequests   int     `json:"evil_requests"`
	Evil200        int     `json:"evil_200"`
	Evil429        int     `json:"evil_429"`
	Evil503        int     `json:"evil_503"`
	// EvilRetryAfter reports that every 429 carried a Retry-After hint.
	EvilRetryAfter bool `json:"evil_retry_after"`
	EvilErrors     int  `json:"evil_errors"`
	BudgetRequests int  `json:"budget_requests"`
	Budget504      int  `json:"budget_504"`
	// BudgetBackendQueries counts backend SQL executed during the
	// spent-budget burst — the engine query log must stay empty.
	BudgetBackendQueries int    `json:"budget_backend_queries"`
	StaleServed          bool   `json:"stale_served"`
	StaleIdentical       bool   `json:"stale_identical"`
	StaleAge             string `json:"stale_age,omitempty"`
	OK                   bool   `json:"ok"`
}

type saturationReport struct {
	Admitted   int    `json:"admitted"`
	Rejected   int    `json:"rejected"`
	RetryAfter string `json:"retry_after"`
	OK         bool   `json:"ok"`
}

type drainReport struct {
	InFlight   int  `json:"in_flight"`
	Completed  int  `json:"completed"`
	NewRefused bool `json:"new_refused"`
	CleanExit  bool `json:"clean_exit"`
	OK         bool `json:"ok"`
}

func main() {
	clients := flag.Int("clients", 32, "concurrent client goroutines")
	rounds := flag.Int("rounds", 4, "requests per client per view")
	scale := flag.Float64("scale", 0.001, "TPC-H scale factor for the in-process backend")
	seed := flag.Int64("seed", 42, "TPC-H generator seed")
	addr := flag.String("addr", "", "target an external silkrouted instead of in-process (skips saturation/drain)")
	satConcurrent := flag.Int("sat-concurrent", 2, "admitted-stream cap for the saturation phase")
	shards := flag.Int("shards", 1, "back the throughput phase with this many scatter-gather shards (partitioned by Supplier, served in-process)")
	skipSaturate := flag.Bool("skip-saturate", false, "skip the saturation phase")
	skipDrain := flag.Bool("skip-drain", false, "skip the SIGTERM drain phase")
	overload := flag.Bool("overload", false, "run the two-tenant overload/degradation scenario instead of the standard phases")
	overloadDur := flag.Duration("overload-duration", 3*time.Second, "storm duration for -overload")
	out := flag.String("out", "", "write the JSON summary to this file")
	flag.Parse()

	rep := report{
		Clients: *clients,
		Rounds:  *rounds,
		PerView: make(map[string]viewStats),
		OK:      true,
	}

	if *overload {
		rep.Overload = runOverload(*scale, *seed, *overloadDur)
		rep.Views = 2
		rep.OK = rep.Overload.OK
		printSummary(&rep)
		writeReport(&rep, *out)
		if !rep.OK {
			os.Exit(1)
		}
		return
	}

	var (
		baseURL string
		goldens map[string][]byte
		reg     *viewsvc.Registry
		stop    func()
	)
	if *addr != "" {
		baseURL = "http://" + *addr
		var err error
		goldens, err = fetchBaselines(baseURL)
		if err != nil {
			fatal(err)
		}
	} else {
		db := silkroute.OpenTPCH(*scale, *seed)
		// With -shards the served views evaluate over a scatter-gather
		// topology of in-process partitions, while the goldens still come
		// from a direct Materialize of the unpartitioned database — so the
		// byte-compare doubles as a sharding equivalence check under load.
		backend, cleanupShards, err := shardBackend(db, *shards)
		if err != nil {
			fatal(err)
		}
		if cleanupShards != nil {
			defer cleanupShards()
		}
		reg, goldens, err = buildRegistry(db, backend)
		if err != nil {
			fatal(err)
		}
		baseURL, stop, err = startServer(viewsvc.Config{
			Registry: reg,
			Limits:   viewsvc.Limits{MaxConcurrent: *clients + 4},
		})
		if err != nil {
			fatal(err)
		}
	}
	rep.Views = len(goldens)

	runThroughput(baseURL, goldens, *clients, *rounds, &rep)
	if stop != nil {
		stop()
	}

	if *addr == "" && !*skipSaturate {
		db := silkroute.OpenTPCH(*scale, *seed)
		r, g, err := buildRegistry(db, nil)
		if err != nil {
			fatal(err)
		}
		rep.Saturation = runSaturation(r, g, *satConcurrent)
		if !rep.Saturation.OK {
			rep.OK = false
		}
	}
	if *addr == "" && !*skipDrain {
		db := silkroute.OpenTPCH(*scale, *seed)
		r, g, err := buildRegistry(db, nil)
		if err != nil {
			fatal(err)
		}
		rep.Drain = runDrain(r, g)
		if !rep.Drain.OK {
			rep.OK = false
		}
	}

	if rep.Mismatches > 0 || rep.Errors > 0 {
		rep.OK = false
	}
	printSummary(&rep)
	writeReport(&rep, *out)
	if !rep.OK {
		os.Exit(1)
	}
}

func writeReport(rep *report, out string) {
	if out == "" {
		return
	}
	blob, _ := json.MarshalIndent(rep, "", "  ")
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

// buildRegistry registers the built-in views and computes each one's
// direct-Materialize golden document — the byte-exact reference every HTTP
// response is judged against. Goldens always come from db directly; with a
// non-nil backend (a sharded topology) the *served* handles compile
// against it instead, so responses additionally prove scatter-gather
// equivalence.
func buildRegistry(db *silkroute.DB, backend silkroute.Backend) (*viewsvc.Registry, map[string][]byte, error) {
	reg := viewsvc.NewRegistry()
	goldens := make(map[string][]byte, len(builtinViews))
	for _, bv := range builtinViews {
		h, err := viewsvc.Compile(bv.name, db, bv.src, silkroute.WithStrategy(bv.strategy))
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		if _, err := h.Materialize(context.Background(), &buf); err != nil {
			return nil, nil, fmt.Errorf("golden for %s: %w", bv.name, err)
		}
		goldens[bv.name] = buf.Bytes()
		if backend != nil {
			h, err = viewsvc.Compile(bv.name, backend, bv.src, silkroute.WithStrategy(bv.strategy))
			if err != nil {
				return nil, nil, err
			}
		}
		reg.Register(bv.name, h, bv.src, "loadgen")
	}
	return reg, goldens, nil
}

// shardBackend partitions db into n shards (Supplier rows split by key
// hash, everything else replicated), serves each partition on a loopback
// wire listener, and dials the sharded topology. n <= 1 returns a nil
// backend: views evaluate directly against db.
func shardBackend(db *silkroute.DB, n int) (silkroute.Backend, func(), error) {
	if n <= 1 {
		return nil, nil, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	parts := make([]silkroute.Topology, n)
	for i := 0; i < n; i++ {
		shard, err := db.Partition("Supplier", i, n)
		if err != nil {
			cancel()
			wg.Wait()
			return nil, nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cancel()
			wg.Wait()
			return nil, nil, err
		}
		wg.Add(1)
		go func(shard *silkroute.DB, l net.Listener) {
			defer wg.Done()
			shard.ServeContext(ctx, l)
		}(shard, l)
		parts[i] = silkroute.Single(l.Addr().String())
	}
	r, err := silkroute.Dial(silkroute.Sharded(parts...),
		silkroute.WithSource(silkroute.TPCHSourceDescription()))
	if err != nil {
		cancel()
		wg.Wait()
		return nil, nil, err
	}
	cleanup := func() {
		r.Close()
		cancel()
		wg.Wait()
	}
	return r, cleanup, nil
}

// startServer launches a viewsvc server on a loopback port and returns its
// base URL plus a stopper that drains it.
func startServer(cfg viewsvc.Config) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := viewsvc.New(cfg)
	go srv.Serve(l)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return "http://" + l.Addr().String(), stop, nil
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
	}}
}

// fetchBaselines lists an external server's views and takes each one's
// first fetch as the reference body for the run.
func fetchBaselines(baseURL string) (map[string][]byte, error) {
	resp, err := http.Get(baseURL + "/views")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var infos []viewsvc.ViewInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, fmt.Errorf("list views: %w", err)
	}
	goldens := make(map[string][]byte)
	for _, vi := range infos {
		if !vi.OK {
			continue
		}
		body, _, err := get(http.DefaultClient, baseURL, vi.Name)
		if err != nil {
			return nil, fmt.Errorf("baseline %s: %w", vi.Name, err)
		}
		goldens[vi.Name] = body
	}
	if len(goldens) == 0 {
		return nil, fmt.Errorf("no serving views at %s", baseURL)
	}
	return goldens, nil
}

// fetchResult is one completed HTTP exchange: status, headers, full body,
// and wall time. Transport failures (dial, mid-body cut) surface as the
// error from fetch instead.
type fetchResult struct {
	status  int
	header  http.Header
	body    []byte
	elapsed time.Duration
}

// fetch performs one GET with optional extra headers and reads the body to
// the end. It does not judge the status — callers classify 200 vs 429 vs
// 503 themselves.
func fetch(c *http.Client, url string, hdr map[string]string) (*fetchResult, error) {
	start := time.Now()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &fetchResult{status: resp.StatusCode, header: resp.Header, body: body, elapsed: time.Since(start)}, nil
}

// get fetches one view document and reports the full body and elapsed time.
func get(c *http.Client, baseURL, view string) ([]byte, time.Duration, error) {
	res, err := fetch(c, baseURL+"/views/"+view, nil)
	if err != nil {
		return nil, 0, err
	}
	if res.status != http.StatusOK {
		return nil, res.elapsed, fmt.Errorf("view %s: status %d: %s", view, res.status, bytes.TrimSpace(res.body))
	}
	return res.body, res.elapsed, nil
}

type sample struct {
	view string
	d    time.Duration
}

// runThroughput is the main phase: every client walks the view list
// (rotated by client index so the mix interleaves) rounds times, and every
// body is compared byte-for-byte against the golden.
func runThroughput(baseURL string, goldens map[string][]byte, clients, rounds int, rep *report) {
	views := make([]string, 0, len(goldens))
	for name := range goldens {
		views = append(views, name)
	}
	sort.Strings(views)

	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	httpc := newClient(clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range views {
					view := views[(c+i)%len(views)]
					res, err := fetch(httpc, baseURL+"/views/"+view, nil)
					mu.Lock()
					rep.Requests++
					switch {
					case err != nil:
						rep.Errors++
						fmt.Fprintf(os.Stderr, "loadgen: view %s: %v\n", view, err)
					case res.status == http.StatusTooManyRequests:
						rep.Rejected429++
					case res.status == http.StatusServiceUnavailable:
						rep.Rejected503++
					case res.status != http.StatusOK:
						rep.Errors++
						fmt.Fprintf(os.Stderr, "loadgen: view %s: status %d: %s\n", view, res.status, bytes.TrimSpace(res.body))
					case !bytes.Equal(res.body, goldens[view]):
						rep.Mismatches++
						fmt.Fprintf(os.Stderr, "loadgen: view %s: body diverges from direct Materialize (%d vs %d bytes)\n",
							view, len(res.body), len(goldens[view]))
					default:
						samples = append(samples, sample{view, res.elapsed})
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()

	durs := make([]time.Duration, len(samples))
	perView := make(map[string][]time.Duration)
	for i, s := range samples {
		durs[i] = s.d
		perView[s.view] = append(perView[s.view], s.d)
	}
	rep.P50ms, rep.P95ms, rep.P99ms = percentileMS(durs, 50), percentileMS(durs, 95), percentileMS(durs, 99)
	for view, vd := range perView {
		rep.PerView[view] = viewStats{
			Requests: len(vd),
			P50ms:    percentileMS(vd, 50),
			P99ms:    percentileMS(vd, 99),
		}
	}
}

// runSaturation proves admission control: with slots admitted streams parked
// on a gate, the overflow must bounce with 503 + Retry-After, and the
// parked streams must still finish byte-identically once released.
func runSaturation(reg *viewsvc.Registry, goldens map[string][]byte, slots int) *saturationReport {
	sr := &saturationReport{}
	gate := make(chan struct{})
	admitted := make(chan struct{}, slots*2)
	baseURL, stop, err := startServer(viewsvc.Config{
		Registry: reg,
		Limits:   viewsvc.Limits{MaxConcurrent: slots, RetryAfter: 2 * time.Second},
		Hooks: viewsvc.Hooks{StreamStarted: func(*viewsvc.Session) {
			admitted <- struct{}{}
			<-gate
		}},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: saturation:", err)
		return sr
	}
	defer stop()

	httpc := newClient(slots)
	// Park exactly slots streams on the gate, one at a time, so admission
	// is deterministic rather than a race between the fillers.
	var parked sync.WaitGroup
	results := make(chan error, slots)
	for i := 0; i < slots; i++ {
		parked.Add(1)
		go func() {
			defer parked.Done()
			body, _, err := get(httpc, baseURL, "q1")
			if err == nil && !bytes.Equal(body, goldens["q1"]) {
				err = fmt.Errorf("parked stream diverged from golden")
			}
			results <- err
		}()
		<-admitted
	}
	sr.Admitted = slots

	// Every further request must be refused, and must say when to retry.
	for i := 0; i < slots+2; i++ {
		resp, err := http.Get(baseURL + "/views/q1")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: saturation probe:", err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			sr.Rejected++
			sr.RetryAfter = resp.Header.Get("Retry-After")
		}
	}

	close(gate)
	parked.Wait()
	ok := sr.Rejected == slots+2 && sr.RetryAfter != ""
	for i := 0; i < slots; i++ {
		if err := <-results; err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: saturation:", err)
			ok = false
		}
	}
	sr.OK = ok
	return sr
}

// runDrain proves graceful shutdown end to end through the real signal
// path: park streams mid-flight, deliver SIGTERM to our own process, and
// require that new requests bounce while every parked stream completes
// byte-identically — a drained server never truncates a document.
func runDrain(reg *viewsvc.Registry, goldens map[string][]byte) *drainReport {
	dr := &drainReport{InFlight: 3}
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stopSignals()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: drain:", err)
		return dr
	}
	gate := make(chan struct{})
	admitted := make(chan struct{}, dr.InFlight)
	srv := viewsvc.New(viewsvc.Config{
		Registry: reg,
		Limits:   viewsvc.Limits{MaxConcurrent: dr.InFlight + 1},
		Hooks: viewsvc.Hooks{StreamStarted: func(*viewsvc.Session) {
			admitted <- struct{}{}
			<-gate
		}},
	})
	served := make(chan error, 1)
	go func() { served <- srv.ServeContext(ctx, l, 30*time.Second) }()
	baseURL := "http://" + l.Addr().String()

	httpc := newClient(dr.InFlight)
	var wg sync.WaitGroup
	results := make(chan error, dr.InFlight)
	for i := 0; i < dr.InFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _, err := get(httpc, baseURL, "q2")
			if err == nil && !bytes.Equal(body, goldens["q2"]) {
				err = fmt.Errorf("drained stream diverged from golden")
			}
			results <- err
		}()
		<-admitted
	}

	// All streams are mid-flight. Pull the trigger the way an operator (or
	// an orchestrator) would.
	syscall.Kill(os.Getpid(), syscall.SIGTERM)

	// The listener must close promptly: new requests get a transport error,
	// not a queued slot.
	probe := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := probe.Get(baseURL + "/healthz")
		if err != nil {
			dr.NewRefused = true
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(20 * time.Millisecond)
	}

	close(gate)
	wg.Wait()
	ok := dr.NewRefused
	for i := 0; i < dr.InFlight; i++ {
		if err := <-results; err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: drain:", err)
			ok = false
		} else {
			dr.Completed++
		}
	}
	if err := <-served; err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: drain: ServeContext:", err)
		ok = false
	} else {
		dr.CleanExit = true
	}
	dr.OK = ok && dr.Completed == dr.InFlight
	return dr
}

// Overload-scenario shape: the admitted-stream cap, the offered load at
// twice that, and the chaos spec killing replica 0's streams mid-flight
// (each distinct query text cut at a pseudo-random row, enough kill budget
// to stay flaky all storm).
const (
	overloadSlots = 4
	// Each distinct query text on replica 0 is cut at a pseudo-random row
	// up to three times — enough to force the resume ladder and
	// cross-replica failovers, without replaying the kill on every single
	// retry for the whole storm.
	overloadChaosSpec = "seed=11,cutrowmax=25,kills=3"
	// maxGoodP99 bounds the in-quota tenant's p99 under the storm. It is
	// deliberately loose — the assertion is "not starved" (milliseconds
	// to seconds, not minutes), robust to the race detector and to the
	// resume/failover churn the chaos kills cause.
	maxGoodP99 = 10 * time.Second
)

// runOverload is the per-tenant overload/degradation scenario; see the
// package comment for the contract it asserts.
func runOverload(scale float64, seed int64, duration time.Duration) *overloadReport {
	or := &overloadReport{Slots: overloadSlots, OfferedClients: 2 * overloadSlots}
	fail := func(format string, args ...any) *overloadReport {
		fmt.Fprintf(os.Stderr, "loadgen: overload: "+format+"\n", args...)
		return or
	}

	// One database served on two replica listeners: identical data by
	// construction, and one shared query log that sees every backend
	// stream either replica runs. Replica 0 is chaos-killed mid-stream
	// throughout, so the storm rides resume + cross-replica failover.
	db := silkroute.OpenTPCH(scale, seed)
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	var swg sync.WaitGroup
	addrs := make([]string, 2)
	listeners := make([]net.Listener, 2)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail("%v", err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
		swg.Add(1)
		chaosSpec := ""
		if i == 0 {
			chaosSpec = overloadChaosSpec
		}
		go func(l net.Listener, spec string) {
			defer swg.Done()
			if spec != "" {
				db.ServeChaosContext(sctx, l, spec)
			} else {
				db.ServeContext(sctx, l)
			}
		}(l, chaosSpec)
	}
	stopBackends := func() {
		scancel()
		for _, l := range listeners {
			l.Close()
		}
		swg.Wait()
	}
	defer stopBackends()

	// The served views ride the replicated backend with the full
	// resilience ladder plus both caches — the fragment cache doubles as
	// the serve-stale source once every replica is gone.
	opts := []silkroute.Option{
		silkroute.WithSource(silkroute.TPCHSourceDescription()),
		silkroute.WithResume(3),
		silkroute.WithBreaker(1, 500*time.Millisecond),
		silkroute.WithPlanCache(),
		silkroute.WithFragmentCache(-1),
	}
	remote, err := silkroute.Dial(silkroute.Replicas(addrs...), opts...)
	if err != nil {
		return fail("dial replicas: %v", err)
	}
	defer remote.Close()

	reg := viewsvc.NewRegistry()
	goldens := make(map[string][]byte)
	views := []string{"q1", "fragment"}
	for _, spec := range []struct {
		name, src string
		strat     silkroute.Strategy
	}{
		{"q1", rxl.Query1Source, silkroute.Greedy},
		{"fragment", rxl.FragmentSource, silkroute.Unified},
	} {
		gh, err := viewsvc.Compile(spec.name, db, spec.src, silkroute.WithStrategy(spec.strat))
		if err != nil {
			return fail("compile golden %s: %v", spec.name, err)
		}
		var buf bytes.Buffer
		if _, err := gh.Materialize(context.Background(), &buf); err != nil {
			return fail("golden %s: %v", spec.name, err)
		}
		goldens[spec.name] = buf.Bytes()
		h, err := viewsvc.Compile(spec.name, remote, spec.src,
			append(append([]silkroute.Option(nil), opts...), silkroute.WithStrategy(spec.strat))...)
		if err != nil {
			return fail("compile %s: %v", spec.name, err)
		}
		reg.Register(spec.name, h, spec.src, "loadgen")
	}

	// The good tenant's concurrency carve-out plus the evil tenant's
	// equals the global cap, so the good tenant can never be squeezed
	// into a 503 by the evil one's burst — its failures would be real
	// failures.
	baseURL, stopSrv, err := startServer(viewsvc.Config{
		Registry: reg,
		Limits:   viewsvc.Limits{MaxConcurrent: overloadSlots},
		Tenants: map[string]viewsvc.TenantLimits{
			"good": {MaxConcurrent: overloadSlots / 2},
			"evil": {Rate: 40, Burst: 2, MaxConcurrent: overloadSlots / 2},
		},
		ServeStale: true,
	})
	if err != nil {
		return fail("start server: %v", err)
	}
	defer stopSrv()
	httpc := newClient(2 * overloadSlots)

	// Warm the plan and fragment caches outside the clock: the storm
	// measures steady-state behavior under overload, not the cost of the
	// first greedy compilation over a chaos-killed wire.
	for _, view := range views {
		res, err := fetch(httpc, baseURL+"/views/"+view, map[string]string{viewsvc.HeaderTenant: "good"})
		if err != nil || res.status != http.StatusOK {
			return fail("warmup %s failed (err=%v status=%d)", view, err, statusOf(res))
		}
	}

	// Phase 1 — the storm: offered load at twice the admitted cap, split
	// between the tenants, over the chaos-killed replica set.
	var (
		mu        sync.Mutex
		goodLat   []time.Duration
		raMissing int
		storm     sync.WaitGroup
	)
	stormEnd := time.Now().Add(duration)
	for c := 0; c < overloadSlots/2; c++ {
		storm.Add(1)
		go func(c int) {
			defer storm.Done()
			for i := 0; time.Now().Before(stormEnd); i++ {
				view := views[(c+i)%len(views)]
				res, err := fetch(httpc, baseURL+"/views/"+view, map[string]string{viewsvc.HeaderTenant: "good"})
				mu.Lock()
				or.GoodRequests++
				switch {
				case err != nil:
					or.GoodErrors++
					fmt.Fprintf(os.Stderr, "loadgen: overload: good %s: %v\n", view, err)
				case res.status == http.StatusOK:
					if bytes.Equal(res.body, goldens[view]) {
						goodLat = append(goodLat, res.elapsed)
					} else {
						or.GoodMismatches++
						fmt.Fprintf(os.Stderr, "loadgen: overload: good %s: body diverges (%d vs %d bytes)\n",
							view, len(res.body), len(goldens[view]))
					}
				case res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable:
					or.GoodRejected++
				default:
					or.GoodErrors++
					fmt.Fprintf(os.Stderr, "loadgen: overload: good %s: status %d: %s\n",
						view, res.status, bytes.TrimSpace(res.body))
				}
				mu.Unlock()
			}
		}(c)
	}
	for c := 0; c < 2*overloadSlots-overloadSlots/2; c++ {
		storm.Add(1)
		go func(c int) {
			defer storm.Done()
			for i := 0; time.Now().Before(stormEnd); i++ {
				view := views[(c+i)%len(views)]
				res, err := fetch(httpc, baseURL+"/views/"+view, map[string]string{viewsvc.HeaderTenant: "evil"})
				mu.Lock()
				or.EvilRequests++
				switch {
				case err != nil:
					or.EvilErrors++
					fmt.Fprintf(os.Stderr, "loadgen: overload: evil %s: %v\n", view, err)
				case res.status == http.StatusOK:
					or.Evil200++
					if !bytes.Equal(res.body, goldens[view]) {
						or.EvilErrors++
						fmt.Fprintf(os.Stderr, "loadgen: overload: evil %s: body diverges\n", view)
					}
				case res.status == http.StatusTooManyRequests:
					or.Evil429++
					if res.header.Get("Retry-After") == "" {
						raMissing++
					}
				case res.status == http.StatusServiceUnavailable:
					or.Evil503++
				default:
					or.EvilErrors++
					fmt.Fprintf(os.Stderr, "loadgen: overload: evil %s: status %d: %s\n",
						view, res.status, bytes.TrimSpace(res.body))
				}
				mu.Unlock()
			}
		}(c)
	}
	storm.Wait()
	or.GoodP99ms = percentileMS(goodLat, 99)
	or.EvilRetryAfter = or.Evil429 > 0 && raMissing == 0

	// Phase 2 — spent budgets: requests whose Silkroute-Budget is already
	// gone must be refused 504 at the door, opening zero backend streams.
	// The query log was just cleared; both replicas write to it, so any
	// backend SQL at all fails the assertion.
	db.EnableQueryLog()
	for i := 0; i < 10; i++ {
		res, err := fetch(httpc, baseURL+"/views/q1", map[string]string{
			viewsvc.HeaderTenant: "good",
			viewsvc.HeaderBudget: "100us",
		})
		or.BudgetRequests++
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: overload: budget probe: %v\n", err)
			continue
		}
		if res.status == http.StatusGatewayTimeout {
			or.Budget504++
		} else {
			fmt.Fprintf(os.Stderr, "loadgen: overload: budget probe: status %d, want 504\n", res.status)
		}
	}
	or.BudgetBackendQueries = len(db.QueryLog())

	// Phase 3 — serve-stale: warm the fragment cache with one fresh
	// fetch, kill every replica, and require a complete, byte-identical
	// cached document flagged with the staleness headers. The breaker
	// takes a few failures to settle into the all-unhealthy state the
	// degradation path keys on, so poll briefly.
	warm, err := fetch(httpc, baseURL+"/views/fragment", map[string]string{viewsvc.HeaderTenant: "good"})
	if err != nil || warm.status != http.StatusOK || !bytes.Equal(warm.body, goldens["fragment"]) {
		return fail("stale warmup failed (err=%v status=%d)", err, statusOf(warm))
	}
	stopBackends()
	staleDeadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(staleDeadline) {
		res, err := fetch(httpc, baseURL+"/views/fragment", map[string]string{viewsvc.HeaderTenant: "good"})
		if err == nil && res.status == http.StatusOK && res.header.Get(viewsvc.HeaderStale) == "true" {
			or.StaleServed = true
			or.StaleAge = res.header.Get(viewsvc.HeaderStaleAge)
			or.StaleIdentical = bytes.Equal(res.body, goldens["fragment"])
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	or.OK = or.GoodRequests > 0 && or.GoodErrors == 0 && or.GoodMismatches == 0 &&
		or.GoodRejected == 0 && or.GoodP99ms <= float64(maxGoodP99/time.Millisecond) &&
		or.Evil429 > 0 && or.EvilRetryAfter && or.EvilErrors == 0 &&
		or.Budget504 == or.BudgetRequests && or.BudgetBackendQueries == 0 &&
		or.StaleServed && or.StaleIdentical
	return or
}

func statusOf(res *fetchResult) int {
	if res == nil {
		return 0
	}
	return res.status
}

func percentileMS(durs []time.Duration, p int) float64 {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*p + 99) / 100 // ceil rank
	if idx < 1 {
		idx = 1
	}
	return float64(sorted[idx-1]) / float64(time.Millisecond)
}

func printSummary(rep *report) {
	if o := rep.Overload; o != nil {
		fmt.Printf("overload: %d slots, %d offered clients, one replica chaos-killed\n", o.Slots, o.OfferedClients)
		fmt.Printf("  good: %d requests — %d rejected, %d errors, %d mismatches, p99 %.2fms\n",
			o.GoodRequests, o.GoodRejected, o.GoodErrors, o.GoodMismatches, o.GoodP99ms)
		fmt.Printf("  evil: %d requests — %d ok, %d×429 (Retry-After on all: %v), %d×503, %d errors\n",
			o.EvilRequests, o.Evil200, o.Evil429, o.EvilRetryAfter, o.Evil503, o.EvilErrors)
		fmt.Printf("  budget: %d spent-budget requests — %d×504, %d backend queries\n",
			o.BudgetRequests, o.Budget504, o.BudgetBackendQueries)
		fmt.Printf("  stale: served=%v identical=%v age=%s\n", o.StaleServed, o.StaleIdentical, o.StaleAge)
		if o.OK {
			fmt.Println("loadgen: PASS")
		} else {
			fmt.Println("loadgen: FAIL")
		}
		return
	}
	fmt.Printf("loadgen: %d clients × %d rounds over %d views — %d requests, %d mismatches, %d errors, %d×429, %d×503\n",
		rep.Clients, rep.Rounds, rep.Views, rep.Requests, rep.Mismatches, rep.Errors, rep.Rejected429, rep.Rejected503)
	fmt.Printf("latency: p50 %.2fms  p95 %.2fms  p99 %.2fms\n", rep.P50ms, rep.P95ms, rep.P99ms)
	views := make([]string, 0, len(rep.PerView))
	for v := range rep.PerView {
		views = append(views, v)
	}
	sort.Strings(views)
	for _, v := range views {
		vs := rep.PerView[v]
		fmt.Printf("  %-16s %5d req  p50 %.2fms  p99 %.2fms\n", v, vs.Requests, vs.P50ms, vs.P99ms)
	}
	if rep.Saturation != nil {
		fmt.Printf("saturation: %d admitted, %d rejected (Retry-After %ss) — ok=%v\n",
			rep.Saturation.Admitted, rep.Saturation.Rejected, rep.Saturation.RetryAfter, rep.Saturation.OK)
	}
	if rep.Drain != nil {
		fmt.Printf("drain: %d in-flight all completed=%v, new refused=%v, clean exit=%v — ok=%v\n",
			rep.Drain.InFlight, rep.Drain.Completed == rep.Drain.InFlight,
			rep.Drain.NewRefused, rep.Drain.CleanExit, rep.Drain.OK)
	}
	if rep.OK {
		fmt.Println("loadgen: PASS")
	} else {
		fmt.Println("loadgen: FAIL")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
