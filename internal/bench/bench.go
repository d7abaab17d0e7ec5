// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§2's timing table, Table 1, Figures
// 13–15 and 18, and §5.1's estimate-request counts) against the in-process
// engine and wire protocol.
//
// Absolute times differ from the paper's 2000-era client/server testbed by
// orders of magnitude; the harness reports the same *structure* — which
// plans win, by what factors, and where the crossovers fall — which is the
// reproducible content of the paper.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"silkroute/internal/engine"
	"silkroute/internal/fanout"
	"silkroute/internal/plan"
	"silkroute/internal/rxl"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

// Config is one experimental configuration (Table 1 of the paper).
type Config struct {
	Name  string
	Scale float64
	Seed  int64
	// PaperSize documents the database size the paper used for this
	// configuration.
	PaperSize string
}

// The two configurations. The paper used 1 MB and 100 MB databases (ratio
// 1:100); the reproduction keeps the ratio at laptop-friendly scales.
var (
	ConfigA = Config{Name: "A", Scale: 0.001, Seed: 42, PaperSize: "1 MB"}
	ConfigB = Config{Name: "B", Scale: 0.1, Seed: 42, PaperSize: "100 MB"}
)

// ServerSortBudgetRows models the target server's sort memory: the
// paper's Config B machine had 256 MB of RAM against a 100 MB database,
// and §7 attributes the unified plans' slowness to their big sorts
// spilling to disk while the optimal plans' smaller per-query sorts stay
// in memory. Config A databases fit comfortably under this budget;
// Config B's unified-plan sorts exceed it.
const ServerSortBudgetRows = 50000

// Open generates the configuration's database with the server memory
// model applied.
func (c Config) Open() *engine.Database { return OpenScaled(c.Scale, c.Seed) }

// OpenScaled generates a database at an arbitrary scale with the standard
// server sort budget.
func OpenScaled(scale float64, seed int64) *engine.Database {
	db := tpch.Generate(scale, seed)
	db.SortBudgetRows = ServerSortBudgetRows
	return db
}

// QueryTree parses one of the paper's queries and builds its view tree.
func QueryTree(db *engine.Database, which int) (*viewtree.Tree, error) {
	src := rxl.Query1Source
	if which == 2 {
		src = rxl.Query2Source
	}
	q, err := rxl.Parse(src)
	if err != nil {
		return nil, err
	}
	return viewtree.Build(q, db.Schema)
}

// PlanResult is one measured plan execution.
type PlanResult struct {
	Bits     uint64
	Streams  int
	Reduced  bool
	QueryMS  float64
	TotalMS  float64
	Rows     int64
	Bytes    int64
	TimedOut bool
	// PerStream breaks the winning run down by tuple stream, in stream
	// order.
	PerStream []plan.StreamMetrics
}

// Runner executes plans against one database over the wire protocol.
type Runner struct {
	DB     *engine.Database
	Client *wire.Client
	// Timeout marks plans slower than this as timed out (the paper dropped
	// queries exceeding 5 minutes). Zero disables the check.
	Timeout time.Duration
	// Repeat re-executes each plan this many times and keeps the fastest
	// run, damping scheduler noise. Defaults to 1.
	Repeat int
	// Parallelism bounds how many plans a Sweep measures concurrently:
	// 1 is the serial sweep, <= 0 one worker per CPU. Results are
	// collected by plan bitmask index either way, so CSV exports and
	// figure tables are byte-identical at any setting. Note that
	// concurrent measurement trades per-plan timing fidelity for sweep
	// throughput: use it to explore, re-run serially to publish numbers.
	Parallelism int
}

// NewRunner builds a serial runner with an in-process wire client.
func NewRunner(db *engine.Database) *Runner {
	return &Runner{DB: db, Client: wire.InProcess(db), Repeat: 1, Parallelism: 1}
}

// Run executes one plan and measures it. Cancelling ctx aborts the
// measurement mid-plan.
func (r *Runner) Run(ctx context.Context, p *plan.Plan, bits uint64) (PlanResult, error) {
	repeat := r.Repeat
	if repeat < 1 {
		repeat = 1
	}
	var best PlanResult
	for i := 0; i < repeat; i++ {
		m, err := plan.ExecuteWire(ctx, r.Client, p, io.Discard)
		if err != nil {
			return PlanResult{}, err
		}
		res := PlanResult{
			Bits:      bits,
			Streams:   m.Streams,
			Reduced:   p.Reduce,
			QueryMS:   float64(m.QueryTime.Microseconds()) / 1000,
			TotalMS:   float64(m.TotalTime.Microseconds()) / 1000,
			Rows:      m.Rows,
			Bytes:     m.Bytes,
			PerStream: m.PerStream,
		}
		if r.Timeout > 0 && m.TotalTime > r.Timeout {
			res.TimedOut = true
		}
		if i == 0 || res.TotalMS < best.TotalMS {
			best = res
		}
	}
	return best, nil
}

// Sweep measures all 2^|E| plans of a view tree (the exhaustive experiment
// behind Figures 13 and 14; the paper ran it only on Config A, as does the
// harness by default). progress, if non-nil, receives a line every 64
// plans. Runner.Parallelism plans are measured at once; the result slice
// is in bitmask order regardless.
func (r *Runner) Sweep(ctx context.Context, t *viewtree.Tree, reduce bool, progress io.Writer) ([]PlanResult, error) {
	if len(t.Edges) > 30 {
		return nil, fmt.Errorf("bench: refusing to sweep 2^%d plans", len(t.Edges))
	}
	total := 1 << uint(len(t.Edges))
	out := make([]PlanResult, total)
	errs := make([]error, total)
	var done atomic.Int64
	var progressMu sync.Mutex
	fanout.Each(total, r.Parallelism, func(i int) {
		bits := uint64(i)
		res, err := r.Run(ctx, plan.FromBits(t, bits, reduce), bits)
		if err != nil {
			errs[i] = fmt.Errorf("plan %b: %w", bits, err)
		} else {
			out[i] = res
		}
		if d := done.Add(1); progress != nil && d%64 == 0 {
			progressMu.Lock()
			fmt.Fprintf(progress, "  swept %d/%d plans\n", d, total)
			progressMu.Unlock()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ByTotal sorts results ascending by total time, dropping timed-out plans.
func ByTotal(results []PlanResult) []PlanResult {
	out := make([]PlanResult, 0, len(results))
	for _, r := range results {
		if !r.TimedOut {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS < out[j].TotalMS })
	return out
}

// ByQuery sorts results ascending by query-only time, dropping timed-out
// plans.
func ByQuery(results []PlanResult) []PlanResult {
	out := make([]PlanResult, 0, len(results))
	for _, r := range results {
		if !r.TimedOut {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].QueryMS < out[j].QueryMS })
	return out
}

// Find returns the result with the given bitmask.
func Find(results []PlanResult, bits uint64) (PlanResult, bool) {
	for _, r := range results {
		if r.Bits == bits {
			return r, true
		}
	}
	return PlanResult{}, false
}

// Rank returns the 0-based rank of the plan with the given bits under the
// total-time order, or -1.
func Rank(results []PlanResult, bits uint64) int {
	sorted := ByTotal(results)
	for i, r := range sorted {
		if r.Bits == bits {
			return i
		}
	}
	return -1
}

// MeanOfFastest averages the total time of the k fastest plans — the
// paper's "ten fastest plans" comparisons.
func MeanOfFastest(results []PlanResult, k int, query bool) float64 {
	sorted := ByTotal(results)
	if query {
		sorted = ByQuery(results)
	}
	if len(sorted) < k {
		k = len(sorted)
	}
	if k == 0 {
		return 0
	}
	var sum float64
	for _, r := range sorted[:k] {
		if query {
			sum += r.QueryMS
		} else {
			sum += r.TotalMS
		}
	}
	return sum / float64(k)
}
