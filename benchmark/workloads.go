package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"silkroute"
	"silkroute/internal/bench"
	"silkroute/internal/rxl"
	"silkroute/internal/viewsvc"
)

// sortBudgetRows is the server sort memory every experiment of this repo
// runs under.
const sortBudgetRows = bench.ServerSortBudgetRows

// config sizes one run. The seed reaches the TPC-H generator and the
// operation script only; the code under test never sees it.
type config struct {
	seed     int64
	seconds  float64
	quick    bool
	selftest bool
}

// scale is the TPC-H scale factor of every workload's database: the
// paper's Config A, at which one Query 1 document is ~0.6 MB and costs
// ~0.12 s cold, so a run of the contract's length delivers over a hundred.
func (c config) scale() float64 {
	if c.quick {
		return 0.0002
	}
	return 0.001
}

// setupReps is how often a run sets up: set-up is timed each time and the
// median reported, the last one is kept and measured.
func (c config) setupReps() int {
	if c.quick {
		return 1
	}
	return 3
}

// warmDocs is how many documents each caller delivers, unrecorded, at the
// end of set-up, so lazy initialisation and heap growth are behind it.
func (c config) warmDocs() int {
	if c.quick {
		return 1
	}
	return 5
}

func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// workload is one row of BENCHMARK.json's workloads: a name and how to set
// its system up.
type workload struct {
	name  string
	setup func(config) (system, error)
}

var workloads = []workload{
	{"export-cold", setupCold},
	{"export-sharded", setupSharded},
	{"serve-hot", func(c config) (system, error) { return setupServe(c, false) }},
	{"serve-churn", func(c config) (system, error) { return setupServe(c, true) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// system is one workload set up and warm: what the timed window and the
// traced run drive.
type system interface {
	// callers returns the closed-loop clients of the timed window, at most
	// nproc of them.
	callers() []caller
	// traced drives the pipeline stage by stage from one goroutine for
	// about budget and returns the per-layer metrics.
	traced(tr *trace, budget time.Duration) (*tracedResult, error)
	close()
}

// caller is one closed-loop client. do delivers document i of its script
// into v, having armed v with the document's golden when the request
// starts.
type caller interface {
	do(i int, v *verifier) error
}

// sample is one document as its caller saw it.
type sample struct {
	total time.Duration // request → last byte
	first time.Duration // request → first byte
	bytes int
	ok    bool // delivered without error and equal to the golden
}

// loop runs one caller's script until stop says so.
func loop(c caller, stop func(done int) bool) []sample {
	var out []sample
	var v verifier
	for i := 0; !stop(i); i++ {
		v.reset(nil) // do re-arms it when the request starts; this covers a do that fails before
		err := c.do(i, &v)
		total := time.Since(v.start)
		out = append(out, sample{total: total, first: v.first, bytes: v.off, ok: err == nil && v.ok()})
	}
	return out
}

// warm delivers warmDocs unrecorded documents per view and caller and fails
// set-up if one of them is wrong: a system that cannot produce its golden
// is not measured. The self-test lets them pass, so that its flipped byte
// is caught where a real one would be, in the timed window.
func warm(cfg config, cs []caller, views int) error {
	n := views * cfg.warmDocs()
	for _, c := range cs {
		for _, s := range loop(c, func(done int) bool { return done >= n }) {
			if !s.ok && !cfg.selftest {
				return fmt.Errorf("warm-up document failed or differs from its golden")
			}
		}
	}
	return nil
}

var bg = context.Background()

// goldenOf materialises the reference document of a view: a direct local
// Materialize(Unified), the one plan that needs no planner, no wire and no
// cache. The self-test flips one byte of it.
func goldenOf(cfg config, db *silkroute.DB, src string) ([]byte, error) {
	v, err := silkroute.ParseView(db, src)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := v.Materialize(bg, &buf, silkroute.Unified); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	g := buf.Bytes()
	if cfg.selftest {
		g[len(g)/2] ^= 1
	}
	return g, nil
}

func openDB(cfg config) *silkroute.DB {
	db := silkroute.OpenTPCH(cfg.scale(), cfg.seed)
	db.SetSortBudget(sortBudgetRows)
	return db
}

// --- export-cold ---

// coldSystem is the batch-export case: an in-process database, no caches,
// one caller compiling and materialising Query 1 with the service's
// default strategy.
type coldSystem struct {
	cfg    config
	db     *silkroute.DB
	golden []byte
}

func setupCold(cfg config) (system, error) {
	s := &coldSystem{cfg: cfg, db: openDB(cfg)}
	var err error
	if s.golden, err = goldenOf(cfg, s.db, rxl.Query1Source); err != nil {
		return nil, err
	}
	if err := warm(cfg, s.callers(), 1); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *coldSystem) callers() []caller { return []caller{s} }
func (s *coldSystem) close()            {}

func (s *coldSystem) do(_ int, v *verifier) error {
	v.reset(s.golden)
	view, err := silkroute.ParseView(s.db, rxl.Query1Source)
	if err != nil {
		return err
	}
	_, err = view.Materialize(bg, v, silkroute.Greedy)
	return err
}

// --- export-sharded ---

// shardCount is the number of partitions of the sharded workload.
const shardCount = 2

// shardSystem is the same database split by Supplier over shardCount wire
// servers on loopback TCP, reached through the facade's sharded topology
// and the fully partitioned plan: every stream crosses wire twice over and
// the k-way merge, and no plan search runs.
type shardSystem struct {
	cfg    config
	db     *silkroute.DB // unpartitioned, for the golden and the traced run
	golden []byte
	addrs  []string
	remote *silkroute.Remote
	stops  []func()
}

// serveWire serves db's wire protocol on a loopback port until stop.
func serveWire(db *silkroute.DB) (addr string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithCancel(bg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		db.ServeContext(ctx, l) // returns after the drain; nothing to do with its verdict
	}()
	return l.Addr().String(), func() { cancel(); <-done }, nil
}

func setupSharded(cfg config) (system, error) {
	s := &shardSystem{cfg: cfg, db: openDB(cfg)}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	if s.golden, err = goldenOf(cfg, s.db, rxl.Query1Source); err != nil {
		return nil, err
	}
	parts := make([]silkroute.Topology, shardCount)
	for i := range parts {
		part, err := s.db.Partition("Supplier", i, shardCount)
		if err != nil {
			return nil, err
		}
		part.SetSortBudget(sortBudgetRows)
		addr, stop, err := serveWire(part)
		if err != nil {
			return nil, err
		}
		s.addrs, s.stops = append(s.addrs, addr), append(s.stops, stop)
		parts[i] = silkroute.Single(addr)
	}
	s.remote, err = silkroute.Dial(silkroute.Sharded(parts...),
		silkroute.WithSource(silkroute.TPCHSourceDescription()))
	if err != nil {
		return nil, err
	}
	if err := warm(cfg, s.callers(), 1); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

func (s *shardSystem) callers() []caller { return []caller{s} }

func (s *shardSystem) close() {
	if s.remote != nil {
		s.remote.Close()
	}
	for _, stop := range s.stops {
		stop()
	}
}

func (s *shardSystem) do(_ int, v *verifier) error {
	v.reset(s.golden)
	view, err := silkroute.ParseRemoteView(s.remote, nil, rxl.Query1Source)
	if err != nil {
		return err
	}
	_, err = view.Materialize(bg, v, silkroute.FullyPartitioned)
	return err
}

// --- serve-hot and serve-churn ---

// servedViews is cmd/loadgen's registry: the paper's three views plus two
// strategy variants.
var servedViews = []struct {
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

// churnBlock is the number of reads a churn caller issues per write: 20
// rounds over the five views.
const churnBlock = 20 * 5

// serveSystem is an in-process view service on loopback HTTP with both
// caches on and filled. With churn, each caller's script writes one Nation
// row that no Supplier or Customer references before every block of
// churnBlock reads: the goldens stay valid while the table version and the
// stats epoch move, so the reads that follow re-materialise.
type serveSystem struct {
	churn   bool
	db      *silkroute.DB
	handles []*silkroute.Handle
	goldens [][]byte
	base    string
	stop    func()
	clients []*httpCaller

	// data orders writes against reads. The engine allows inserts only
	// while no query runs (engine.Database's concurrency contract), and a
	// server only runs queries while one of our requests is in flight, so
	// a caller holds it shared around a request and exclusively around an
	// insert — the discipline cache_test.go uses.
	data    sync.RWMutex
	nextKey atomic.Int64
}

func setupServe(cfg config, churn bool) (system, error) {
	s := &serveSystem{churn: churn, db: openDB(cfg)}
	s.nextKey.Store(1000) // TPC-H nation keys are 0..24
	reg := viewsvc.NewRegistry()
	for _, sv := range servedViews {
		g, err := goldenOf(cfg, s.db, sv.src)
		if err != nil {
			return nil, err
		}
		h, err := viewsvc.Compile(sv.name, s.db, sv.src, silkroute.WithStrategy(sv.strategy),
			silkroute.WithPlanCache(), silkroute.WithFragmentCache(0))
		if err != nil {
			return nil, err
		}
		reg.Register(sv.name, h, sv.src, "benchmark")
		s.handles, s.goldens = append(s.handles, h), append(s.goldens, g)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	nproc := runtime.GOMAXPROCS(0)
	srv := viewsvc.New(viewsvc.Config{Registry: reg, Limits: viewsvc.Limits{MaxConcurrent: nproc + 4}})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l) // http.ErrServerClosed after Shutdown
	}()
	s.base = "http://" + l.Addr().String()
	s.stop = func() {
		for _, c := range s.clients {
			c.client.CloseIdleConnections()
		}
		ctx, cancel := context.WithTimeout(bg, 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}
	for i := 0; i < nproc; i++ {
		s.clients = append(s.clients, &httpCaller{
			s:      s,
			client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
			buf:    make([]byte, 64<<10),
			offset: i, // callers start on different views, so they are not in lockstep
			script: rand.New(rand.NewSource(cfg.seed + int64(i))),
		})
	}
	// The first round fills both caches; the rest warm every keep-alive
	// connection.
	if err := warm(cfg, s.callers(), len(servedViews)); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *serveSystem) callers() []caller {
	out := make([]caller, len(s.clients))
	for i, c := range s.clients {
		out[i] = c
	}
	return out
}

func (s *serveSystem) close() { s.stop() }

// write inserts one Nation row nothing references; its name and region
// come from the caller's seeded script.
func (s *serveSystem) write(script *rand.Rand) error {
	key := s.nextKey.Add(1)
	s.data.Lock()
	defer s.data.Unlock()
	return s.db.Insert("Nation", int(key), fmt.Sprintf("NATION-%d-%d", key, script.Intn(1<<20)), script.Intn(5))
}

// httpCaller is one keep-alive HTTP client reading the views round-robin
// through its own connection and one reused read buffer, so the harness's
// share of the process's allocation is constant.
type httpCaller struct {
	s      *serveSystem
	client *http.Client
	buf    []byte
	offset int
	script *rand.Rand
}

func (c *httpCaller) do(i int, v *verifier) error {
	if c.s.churn && i%churnBlock == 0 {
		if err := c.s.write(c.script); err != nil {
			return err
		}
	}
	k := (i + c.offset) % len(servedViews)
	c.s.data.RLock()
	defer c.s.data.RUnlock()
	v.reset(c.s.goldens[k])
	resp, err := c.client.Get(c.s.base + "/views/" + servedViews[k].name)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A refusal (429/503/504) or an error status is a failed document.
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", servedViews[k].name, resp.Status)
	}
	for {
		n, err := resp.Body.Read(c.buf)
		v.Write(c.buf[:n])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
