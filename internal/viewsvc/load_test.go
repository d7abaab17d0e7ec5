// Tests of the service under concurrent load: every body byte-identical
// to a direct Materialize over a local and a 2-shard backend, and the
// two-tenant overload scenario over a chaos-killed replica set. Each runs
// in-process against an HTTP server on a loopback port, and none skips
// under -short.
package viewsvc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"silkroute"
	"silkroute/internal/rxl"
)

// fetched is one completed GET: status, headers, the whole body, and the
// wall time to its last byte.
type fetched struct {
	status  int
	header  http.Header
	body    []byte
	elapsed time.Duration
}

// fetch GETs url with the given header name/value pairs and reads the body
// to its end. A transport error or a body cut mid-stream is the error; the
// status is the caller's to judge.
func fetch(c *http.Client, url string, hdr ...string) (fetched, error) {
	start := time.Now()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return fetched{}, err
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := c.Do(req)
	if err != nil {
		return fetched{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return fetched{resp.StatusCode, resp.Header, body, time.Since(start)}, err
}

// loadViews is the served registry of the load test: the paper's three
// views plus two strategy variants, so concurrent requests run distinct
// plans under one server. golden names the fixture document each must
// equal; every plan of a view yields the same bytes.
var loadViews = []struct {
	name, golden, src string
	strategy          silkroute.Strategy
}{
	{"q1", "q1", rxl.Query1Source, silkroute.Greedy},
	{"q2", "q2", rxl.Query2Source, silkroute.Greedy},
	{"fragment", "fragment", rxl.FragmentSource, silkroute.Greedy},
	{"q1-unified", "q1", rxl.Query1Source, silkroute.Unified},
	{"q2-partitioned", "q2", rxl.Query2Source, silkroute.FullyPartitioned},
}

const (
	loadClients = 8
	loadRounds  = 2
)

// shardedBackend splits db into n partitions (Supplier rows by key hash,
// every other relation replicated), serves each on a loopback wire
// listener, and dials them as one sharded topology.
func shardedBackend(t *testing.T, db *silkroute.DB, n int) silkroute.Backend {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() { cancel(); wg.Wait() })
	parts := make([]silkroute.Topology, n)
	for i := range parts {
		shard, err := db.Partition("Supplier", i, n)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard.ServeContext(ctx, l)
		}()
		parts[i] = silkroute.Single(l.Addr().String())
	}
	r, err := silkroute.Dial(silkroute.Sharded(parts...), silkroute.WithSource(silkroute.TPCHSourceDescription()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestServedEquivalenceUnderLoad runs loadClients clients × loadRounds
// rounds over the five loadViews, each client starting at a different view
// so the mix interleaves. Every response must be a 200 whose body equals
// the direct Materialize of the unpartitioned database: no error, no 429,
// no 503. Over two shards this is also the scatter-gather equivalence
// check under concurrent load.
func TestServedEquivalenceUnderLoad(t *testing.T) {
	db, goldens := fixture(t)
	for _, tc := range []struct {
		name   string
		shards int
	}{{"local", 1}, {"shards_2", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			var backend silkroute.Backend = db
			if tc.shards > 1 {
				backend = shardedBackend(t, db, tc.shards)
			}
			reg := NewRegistry()
			for _, v := range loadViews {
				h, err := Compile(v.name, backend, v.src, silkroute.WithStrategy(v.strategy))
				if err != nil {
					t.Fatal(err)
				}
				reg.Register(v.name, h, v.src, "test")
			}
			srv := New(Config{Registry: reg, Limits: Limits{MaxConcurrent: loadClients + 4}})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: loadClients}}
			defer client.CloseIdleConnections()

			errs := make(chan error, loadClients*loadRounds*len(loadViews))
			var wg sync.WaitGroup
			for c := 0; c < loadClients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < loadRounds; r++ {
						for i := range loadViews {
							v := loadViews[(c+i)%len(loadViews)]
							res, err := fetch(client, ts.URL+"/views/"+v.name)
							switch {
							case err != nil:
								errs <- fmt.Errorf("%s: %v", v.name, err)
							case res.status != http.StatusOK:
								errs <- fmt.Errorf("%s: status %d: %s", v.name, res.status, bytes.TrimSpace(res.body))
							case !bytes.Equal(res.body, goldens[v.golden]):
								errs <- fmt.Errorf("%s: body diverges from direct Materialize (%d vs %d bytes)",
									v.name, len(res.body), len(goldens[v.golden]))
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// Overload scenario shape.
const (
	// overloadSlots is the admitted-stream cap; the storm offers twice it.
	overloadSlots = 4
	// Each distinct query text on replica 0 is cut at a pseudo-random row
	// up to three times: enough to force resumes and cross-replica
	// failovers without replaying the kill on every retry of the storm.
	overloadChaosSpec = "seed=11,cutrowmax=25,kills=3"
	overloadStorm     = time.Second
	// maxGoodP99 bounds the in-quota tenant's p99. It is loose on purpose:
	// the claim is "not starved", robust to the race detector and to the
	// resume churn the kills cause.
	maxGoodP99 = 10 * time.Second
)

// stormTally classifies one tenant's responses during the storm.
type stormTally struct {
	requests, rejected429, rejected503, noRetryAfter, failed int
	firstFailure                                             error
	latencies                                                []time.Duration
}

func (st *stormTally) add(view string, res fetched, err error, golden []byte) {
	st.requests++
	switch {
	case err != nil:
		st.fail(fmt.Errorf("%s: %v", view, err))
	case res.status == http.StatusOK && !bytes.Equal(res.body, golden):
		st.fail(fmt.Errorf("%s: body diverges (%d vs %d bytes)", view, len(res.body), len(golden)))
	case res.status == http.StatusOK:
		st.latencies = append(st.latencies, res.elapsed)
	case res.status == http.StatusTooManyRequests:
		st.rejected429++
		if res.header.Get("Retry-After") == "" {
			st.noRetryAfter++
		}
	case res.status == http.StatusServiceUnavailable:
		st.rejected503++
	default:
		st.fail(fmt.Errorf("%s: status %d: %s", view, res.status, bytes.TrimSpace(res.body)))
	}
}

func (st *stormTally) fail(err error) {
	if st.failed == 0 {
		st.firstFailure = err
	}
	st.failed++
}

// p99 is the ceil-rank 99th percentile of the served latencies.
func (st *stormTally) p99() time.Duration {
	if len(st.latencies) == 0 {
		return 0
	}
	sort.Slice(st.latencies, func(i, j int) bool { return st.latencies[i] < st.latencies[j] })
	return st.latencies[(len(st.latencies)*99+99)/100-1]
}

// TestOverloadTwoTenantsOverChaosReplica offers twice the admitted-stream
// cap, split between a tenant inside its quota and one far past it, over a
// two-replica backend whose first replica is chaos-killed mid-stream. The
// in-quota tenant must see only byte-identical documents, no rejection and
// a bounded p99; the abusive one must collect 429s, each with Retry-After,
// and no error. Requests with a spent budget must then answer 504 without
// one backend query, and once both replicas stop, a warmed view must be
// served complete and flagged stale.
func TestOverloadTwoTenantsOverChaosReplica(t *testing.T) {
	_, goldens := fixture(t)
	// A database of its own, equal to the fixture's, so the query log sees
	// only this test's backend work. Both replicas serve it, so the log
	// sees every stream either one runs.
	db := silkroute.OpenTPCH(0.001, 42)
	sctx, scancel := context.WithCancel(context.Background())
	var backends sync.WaitGroup
	stopBackends := sync.OnceFunc(func() { scancel(); backends.Wait() })
	defer stopBackends()
	addrs := make([]string, 2)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		backends.Add(1)
		go func() {
			defer backends.Done()
			if i == 0 {
				db.ServeChaosContext(sctx, l, overloadChaosSpec)
			} else {
				db.ServeContext(sctx, l)
			}
		}()
	}

	// The whole healing ladder plus both caches; the fragment cache is
	// also the serve-stale source once every replica is gone.
	opts := []silkroute.Option{
		silkroute.WithSource(silkroute.TPCHSourceDescription()),
		silkroute.WithResume(3),
		silkroute.WithBreaker(1, 500*time.Millisecond),
		silkroute.WithPlanCache(),
		silkroute.WithFragmentCache(-1),
	}
	remote, err := silkroute.Dial(silkroute.Replicas(addrs...), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	reg := NewRegistry()
	views := []string{"q1", "fragment"}
	for _, v := range []struct {
		name, src string
		strategy  silkroute.Strategy
	}{
		{"q1", rxl.Query1Source, silkroute.Greedy},
		{"fragment", rxl.FragmentSource, silkroute.Unified},
	} {
		h, err := Compile(v.name, remote, v.src, append(opts[:len(opts):len(opts)], silkroute.WithStrategy(v.strategy))...)
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(v.name, h, v.src, "test")
	}

	// The two carve-outs add up to the global cap, so the abusive tenant's
	// burst can never squeeze the in-quota one into a 503.
	var started atomic.Int64
	srv := New(Config{
		Registry: reg,
		Limits:   Limits{MaxConcurrent: overloadSlots},
		Tenants: map[string]TenantLimits{
			"good": {MaxConcurrent: overloadSlots / 2},
			"evil": {Rate: 40, Burst: 2, MaxConcurrent: overloadSlots / 2},
		},
		ServeStale: true,
		Hooks:      Hooks{StreamStarted: func(*Session) { started.Add(1) }},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * overloadSlots}}
	defer client.CloseIdleConnections()
	get := func(view, tenant string, hdr ...string) (fetched, error) {
		return fetch(client, ts.URL+"/views/"+view, append([]string{HeaderTenant, tenant}, hdr...)...)
	}

	// Warm both caches outside the clock: the storm measures steady state
	// under overload, not the first greedy compilation over a killed wire.
	for _, view := range views {
		if res, err := get(view, "good"); err != nil || res.status != http.StatusOK {
			t.Fatalf("warmup %s: status %d, err %v", view, res.status, err)
		}
	}

	var (
		mu         sync.Mutex
		good, evil stormTally
		storm      sync.WaitGroup
	)
	end := time.Now().Add(overloadStorm)
	offer := func(tenant string, clients int, st *stormTally) {
		for c := 0; c < clients; c++ {
			storm.Add(1)
			go func() {
				defer storm.Done()
				for i := 0; time.Now().Before(end); i++ {
					view := views[(c+i)%len(views)]
					res, err := get(view, tenant)
					mu.Lock()
					st.add(view, res, err, goldens[view])
					mu.Unlock()
				}
			}()
		}
	}
	offer("good", overloadSlots/2, &good)
	offer("evil", 2*overloadSlots-overloadSlots/2, &evil)
	storm.Wait()
	t.Logf("good: %d requests, p99 %v; evil: %d requests, %d×429, %d×503",
		good.requests, good.p99(), evil.requests, evil.rejected429, evil.rejected503)

	if good.requests == 0 {
		t.Error("the in-quota tenant completed no request")
	}
	if good.failed > 0 {
		t.Errorf("in-quota tenant: %d failed responses, first: %v", good.failed, good.firstFailure)
	}
	if n := good.rejected429 + good.rejected503; n > 0 {
		t.Errorf("in-quota tenant: %d rejections (%d×429, %d×503), want 0", n, good.rejected429, good.rejected503)
	}
	if p := good.p99(); p > maxGoodP99 {
		t.Errorf("in-quota tenant p99 %v, want ≤ %v", p, maxGoodP99)
	}
	if evil.rejected429 == 0 {
		t.Errorf("abusive tenant: no 429 in %d requests", evil.requests)
	}
	if evil.noRetryAfter > 0 {
		t.Errorf("abusive tenant: %d of %d 429s lack Retry-After", evil.noRetryAfter, evil.rejected429)
	}
	if evil.failed > 0 {
		t.Errorf("abusive tenant: %d failed responses, first: %v", evil.failed, evil.firstFailure)
	}

	// Spent budgets are refused 504 at the door: no session starts and no
	// backend query runs.
	db.EnableQueryLog()
	before := started.Load()
	for i := 0; i < 10; i++ {
		if res, err := get("q1", "good", HeaderBudget, "100us"); err != nil || res.status != http.StatusGatewayTimeout {
			t.Errorf("spent-budget request %d: status %d, err %v; want 504", i, res.status, err)
		}
	}
	if n := len(db.QueryLog()); n != 0 {
		t.Errorf("spent-budget requests ran %d backend queries, want 0", n)
	}
	if n := started.Load() - before; n != 0 {
		t.Errorf("spent-budget requests started %d streams, want 0", n)
	}

	// Serve-stale: with the fragment cache warm, stop both replicas. The
	// breaker needs a failure or two to open, so poll.
	if res, err := get("fragment", "good"); err != nil || res.status != http.StatusOK || !bytes.Equal(res.body, goldens["fragment"]) {
		t.Fatalf("stale warmup: status %d, err %v", res.status, err)
	}
	stopBackends()
	var stale fetched
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		res, err := get("fragment", "good")
		if err == nil && res.status == http.StatusOK && res.header.Get(HeaderStale) == "true" {
			stale = res
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no stale document within 15s of both replicas stopping (last: status %d, err %v)", res.status, err)
		}
	}
	if !bytes.Equal(stale.body, goldens["fragment"]) {
		t.Errorf("stale document differs from the golden (%d vs %d bytes)", len(stale.body), len(goldens["fragment"]))
	}
}
