package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"silkroute/internal/engine"
	"silkroute/internal/plan"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
)

// Suite runs the paper's experiments, caching the expensive exhaustive
// sweeps so that figures sharing data (13b/13c, the ratio summaries, the
// Fig. 18 rank checks) measure each plan once.
type Suite struct {
	Out io.Writer
	// Context, when non-nil, governs every plan execution and greedy search
	// the suite runs; cancelling it aborts a long experiment batch between
	// (and inside) measurements. Nil means context.Background().
	Context context.Context
	// ScaleB overrides Config B's scale factor (the full 0.1 sweep takes
	// minutes; smaller values keep the shape).
	ScaleB float64
	// Repeat is per-plan repetition count for noise damping.
	Repeat int
	// Parallelism is forwarded to every Runner the suite creates (plan
	// sweeps) and to the greedy searches. 1, the default, reproduces the
	// serial harness exactly; higher values, or <= 0 for one worker per
	// CPU, speed up exploratory runs at the price of per-plan timing
	// fidelity.
	Parallelism int

	dbA    *engine.Database
	runA   *Runner
	trees  map[int]*viewtree.Tree
	sweeps map[string][]PlanResult
}

// NewSuite creates a suite writing human-readable tables to out.
func NewSuite(out io.Writer) *Suite {
	return &Suite{Out: out, ScaleB: ConfigB.Scale, Repeat: 1, Parallelism: 1,
		trees: make(map[int]*viewtree.Tree), sweeps: make(map[string][]PlanResult)}
}

// ctx returns the suite's context, defaulting to Background.
func (s *Suite) ctx() context.Context {
	if s.Context != nil {
		return s.Context
	}
	return context.Background()
}

func (s *Suite) configA() (*engine.Database, *Runner) {
	if s.dbA == nil {
		s.dbA = ConfigA.Open()
		s.runA = NewRunner(s.dbA)
		s.runA.Repeat = s.Repeat
		s.runA.Parallelism = s.Parallelism
	}
	return s.dbA, s.runA
}

// greedyParams stamps the suite's parallelism onto a greedy parameter set.
// The singleflight cache in plan.Greedy keeps the selected plans and the
// §5.1 request counts identical at every setting.
func (s *Suite) greedyParams(p plan.GreedyParams) plan.GreedyParams {
	p.Parallelism = s.Parallelism
	return p
}

func (s *Suite) tree(which int) (*viewtree.Tree, error) {
	if t, ok := s.trees[which]; ok {
		return t, nil
	}
	db, _ := s.configA()
	t, err := QueryTree(db, which)
	if err != nil {
		return nil, err
	}
	s.trees[which] = t
	return t, nil
}

func (s *Suite) sweep(which int, reduce bool) ([]PlanResult, error) {
	key := fmt.Sprintf("q%d-%v", which, reduce)
	if r, ok := s.sweeps[key]; ok {
		return r, nil
	}
	t, err := s.tree(which)
	if err != nil {
		return nil, err
	}
	_, run := s.configA()
	fmt.Fprintf(s.Out, "[sweep] Query %d, reduce=%v: measuring %d plans on Config A …\n",
		which, reduce, 1<<uint(len(t.Edges)))
	res, err := run.Sweep(s.ctx(), t, reduce, nil)
	if err != nil {
		return nil, err
	}
	s.sweeps[key] = res
	return res, nil
}

// specials measures the comparator plans the figures mark separately: the
// unified outer-union plan (diamond/triangle in the paper's plots). The
// unified outer-join and fully partitioned plans are bitmasks within the
// sweep itself.
func (s *Suite) outerUnion(which int, reduce bool) (PlanResult, error) {
	t, err := s.tree(which)
	if err != nil {
		return PlanResult{}, err
	}
	_, run := s.configA()
	return run.Run(s.ctx(), plan.UnifiedOuterUnion(t, reduce), 1<<uint(len(t.Edges)))
}

// Table1 prints the experimental configurations.
func (s *Suite) Table1() error {
	fmt.Fprintln(s.Out, "== Table 1: experimental configurations ==")
	fmt.Fprintf(s.Out, "%-8s %-12s %-14s %-10s %s\n", "Config", "Paper size", "Repro scale", "Rows", "Row counts per relation")
	for _, c := range []Config{ConfigA, {Name: "B", Scale: s.ScaleB, Seed: ConfigB.Seed, PaperSize: ConfigB.PaperSize}} {
		sz := tpch.SizesFor(c.Scale)
		total := sz.Regions + sz.Nations + sz.Suppliers + sz.Parts + sz.PartSupps + sz.Customers + sz.Orders + sz.LineItems
		fmt.Fprintf(s.Out, "%-8s %-12s %-14g %-10d supp=%d part=%d psupp=%d cust=%d ord=%d line≈%d\n",
			c.Name, c.PaperSize, c.Scale, total,
			sz.Suppliers, sz.Parts, sz.PartSupps, sz.Customers, sz.Orders, sz.LineItems)
	}
	fmt.Fprintln(s.Out)
	return nil
}

// Sec2 reproduces the timing table of §2: the fully partitioned plan, the
// greedy/optimal plan, and the single-query plan for Query 1.
func (s *Suite) Sec2() error {
	db := OpenScaled(s.ScaleB, ConfigB.Seed)
	run := NewRunner(db)
	run.Repeat = s.Repeat
	run.Parallelism = s.Parallelism
	t, err := QueryTree(db, 1)
	if err != nil {
		return err
	}
	greedy, err := plan.Greedy(s.ctx(), db, t, s.greedyParams(plan.DefaultGreedyParams(true)))
	if err != nil {
		return err
	}
	rows := []struct {
		name string
		p    *plan.Plan
	}{
		{"fully partitioned", plan.FullyPartitioned(t)},
		{"greedy (optimal)", greedy.BestPlan(t)},
		{"unified outer-join", plan.Unified(t, true)},
		{"unified outer-union", plan.UnifiedOuterUnion(t, true)},
	}
	fmt.Fprintf(s.Out, "== §2 table: Query 1 on Config B (scale %g) ==\n", s.ScaleB)
	fmt.Fprintf(s.Out, "%-22s %-12s %-14s %-14s %s\n", "Plan", "No. queries", "Total (ms)", "Query (ms)", "Rows")
	for _, r := range rows {
		res, err := run.Run(s.ctx(), r.p, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.Out, "%-22s %-12d %-14.1f %-14.1f %d\n",
			r.name, res.Streams, res.TotalMS, res.QueryMS, res.Rows)
		// The per-stream split is the table's point: the one expensive
		// stream a partitioned plan isolates is what the aggregate hides.
		for i, st := range res.PerStream {
			fmt.Fprintf(s.Out, "  stream %-19d %-12s %-14.1f %-14.1f %d\n",
				i+1, "", float64(st.WallTime.Microseconds())/1000,
				float64(st.QueryTime.Microseconds())/1000, st.Rows)
		}
	}
	fmt.Fprintln(s.Out)
	return nil
}

// figPanel prints one scatter panel as per-stream-count statistics plus
// the marked comparator plans.
func (s *Suite) figPanel(title string, results []PlanResult, query bool, ou PlanResult, t *viewtree.Tree) {
	fmt.Fprintf(s.Out, "-- %s --\n", title)
	val := func(r PlanResult) float64 {
		if query {
			return r.QueryMS
		}
		return r.TotalMS
	}
	byStreams := make(map[int][]float64)
	for _, r := range results {
		if !r.TimedOut {
			byStreams[r.Streams] = append(byStreams[r.Streams], val(r))
		}
	}
	fmt.Fprintf(s.Out, "%-9s %-6s %-12s %-12s %-12s\n", "streams", "plans", "min(ms)", "median(ms)", "max(ms)")
	for k := 1; k <= len(t.Nodes); k++ {
		vals := byStreams[k]
		if len(vals) == 0 {
			continue
		}
		mn, md, mx := stats(vals)
		fmt.Fprintf(s.Out, "%-9d %-6d %-12.1f %-12.1f %-12.1f\n", k, len(vals), mn, md, mx)
	}
	allBits := uint64(1)<<uint(len(t.Edges)) - 1
	sorted := ByTotal(results)
	if query {
		sorted = ByQuery(results)
	}
	best := sorted[0]
	if uni, ok := Find(results, allBits); ok {
		fmt.Fprintf(s.Out, "unified outer-join : %8.1f ms (%.2fx optimal)\n", val(uni), val(uni)/val(best))
	}
	if fp, ok := Find(results, 0); ok {
		fmt.Fprintf(s.Out, "fully partitioned  : %8.1f ms (%.2fx optimal)\n", val(fp), val(fp)/val(best))
	}
	fmt.Fprintf(s.Out, "unified outer-union: %8.1f ms (%.2fx optimal)\n", val(ou), val(ou)/val(best))
	fmt.Fprintf(s.Out, "optimal plan       : %8.1f ms (bits=%0*b, %d streams)\n",
		val(best), len(t.Edges), best.Bits, best.Streams)
	timedOut := 0
	for _, r := range results {
		if r.TimedOut {
			timedOut++
		}
	}
	if timedOut > 0 {
		fmt.Fprintf(s.Out, "timed out          : %d plans\n", timedOut)
	}
	fmt.Fprintln(s.Out)
}

// Fig13 reproduces Figure 13 (Query 1, Config A): (a) query time without
// reduction, (b) query time with reduction, (c) total time with reduction.
func (s *Suite) Fig13() error { return s.figure(13, 1) }

// Fig14 reproduces Figure 14 (Query 2, Config A).
func (s *Suite) Fig14() error { return s.figure(14, 2) }

func (s *Suite) figure(figNo, which int) error {
	t, err := s.tree(which)
	if err != nil {
		return err
	}
	plain, err := s.sweep(which, false)
	if err != nil {
		return err
	}
	reduced, err := s.sweep(which, true)
	if err != nil {
		return err
	}
	ouPlain, err := s.outerUnion(which, false)
	if err != nil {
		return err
	}
	ouReduced, err := s.outerUnion(which, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.Out, "== Figure %d: Query %d, Config A (512 plans) ==\n", figNo, which)
	s.figPanel(fmt.Sprintf("(%c) query time, non-reduced", 'a'), plain, true, ouPlain, t)
	s.figPanel("(b) query time, with reduction", reduced, true, ouReduced, t)
	s.figPanel("(c) total time, with reduction", reduced, false, ouReduced, t)

	// §4's reduction claim: the ten fastest reduced plans vs the ten
	// fastest non-reduced plans.
	f10p := MeanOfFastest(plain, 10, true)
	f10r := MeanOfFastest(reduced, 10, true)
	fmt.Fprintf(s.Out, "ten fastest non-reduced vs reduced (query time): %.1f ms vs %.1f ms (%.2fx)\n\n",
		f10p, f10r, f10p/f10r)
	return nil
}

// GreedyFamilyParams produces the mandatory+optional family structure of
// Fig. 18 rather than a single plan: the strongly beneficial merges (deep
// node queries whose elimination saves whole join chains) stay mandatory,
// while the marginal ones — the shallow '1'-edge merges whose queries are
// nearly free either way — fall into the optional band, so every family
// member is near-optimal. Relative costs scale with the data, so the
// mandatory threshold does too; the paper likewise picked its thresholds
// once per environment.
func GreedyFamilyParams(scale float64, reduce bool) plan.GreedyParams {
	p := plan.DefaultGreedyParams(reduce)
	p.T1 = -2e7 * scale
	return p
}

// Fig15 reproduces Figure 15: Config B, greedy-generated plans (with
// view-tree reduction) against the unified outer-union and fully
// partitioned plans, for both queries.
func (s *Suite) Fig15() error {
	db := OpenScaled(s.ScaleB, ConfigB.Seed)
	run := NewRunner(db)
	run.Repeat = s.Repeat
	run.Parallelism = s.Parallelism
	for _, which := range []int{1, 2} {
		t, err := QueryTree(db, which)
		if err != nil {
			return err
		}
		res, err := plan.Greedy(s.ctx(), db, t, s.greedyParams(GreedyFamilyParams(s.ScaleB, true)))
		if err != nil {
			return err
		}
		family := res.Plans(t)
		fmt.Fprintf(s.Out, "== Figure 15(%c): Query %d, Config B (scale %g) — %d greedy plans ==\n",
			'a'+which-1, which, s.ScaleB, len(family))
		fmt.Fprintf(s.Out, "%-26s %-9s %-12s %-12s\n", "plan", "streams", "query(ms)", "total(ms)")
		bestQ, bestT := math.Inf(1), math.Inf(1)
		for i, p := range family {
			r, err := run.Run(s.ctx(), p, uint64(i))
			if err != nil {
				return err
			}
			bestQ = math.Min(bestQ, r.QueryMS)
			bestT = math.Min(bestT, r.TotalMS)
			fmt.Fprintf(s.Out, "greedy #%-17d %-9d %-12.1f %-12.1f\n", i, r.Streams, r.QueryMS, r.TotalMS)
		}
		ou, err := run.Run(s.ctx(), plan.UnifiedOuterUnion(t, true), 0)
		if err != nil {
			return err
		}
		fp, err := run.Run(s.ctx(), plan.FullyPartitioned(t), 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.Out, "%-26s %-9d %-12.1f %-12.1f\n", "unified outer-union", ou.Streams, ou.QueryMS, ou.TotalMS)
		fmt.Fprintf(s.Out, "%-26s %-9d %-12.1f %-12.1f\n", "fully partitioned", fp.Streams, fp.QueryMS, fp.TotalMS)
		fmt.Fprintf(s.Out, "outer-union vs best greedy : query %.2fx, total %.2fx\n", ou.QueryMS/bestQ, ou.TotalMS/bestT)
		fmt.Fprintf(s.Out, "fully-part. vs best greedy : query %.2fx, total %.2fx\n\n", fp.QueryMS/bestQ, fp.TotalMS/bestT)
	}
	return nil
}

// Fig18 reproduces Figure 18: the mandatory/optional edge sets the greedy
// algorithm selects for Queries 1 and 2, and (on Config A, where the
// exhaustive sweep is available) the rank of the greedy plan among all
// 512 measured plans.
func (s *Suite) Fig18() error {
	db, _ := s.configA()
	fmt.Fprintln(s.Out, "== Figure 18: plans selected by the greedy algorithm ==")
	for _, which := range []int{1, 2} {
		t, err := s.tree(which)
		if err != nil {
			return err
		}
		for _, reduce := range []bool{false, true} {
			res, err := plan.Greedy(s.ctx(), db, t, s.greedyParams(GreedyFamilyParams(ConfigA.Scale, reduce)))
			if err != nil {
				return err
			}
			fmt.Fprintf(s.Out, "Query %d, reduce=%v: mandatory=%v optional=%v (family of %d plans)\n",
				which, reduce, edgeNames(t, res.Mandatory), edgeNames(t, res.Optional), 1<<uint(len(res.Optional)))
			sweep, err := s.sweep(which, reduce)
			if err != nil {
				return err
			}
			var worst int
			for _, p := range res.Plans(t) {
				bits := uint64(0)
				for i, k := range p.Keep {
					if k {
						bits |= 1 << uint(i)
					}
				}
				if rank := Rank(sweep, bits); rank > worst {
					worst = rank
				}
			}
			fmt.Fprintf(s.Out, "  worst rank of family among %d measured plans: %d\n", len(sweep), worst)
		}
	}
	fmt.Fprintln(s.Out)
	return nil
}

// GreedyStats reproduces §5.1's estimate-request counts (paper: 22
// non-reduced, 25 reduced, versus the 81 worst case).
func (s *Suite) GreedyStats() error {
	db, _ := s.configA()
	fmt.Fprintln(s.Out, "== §5.1: estimate requests issued by the greedy search (worst case 81) ==")
	for _, which := range []int{1, 2} {
		t, err := s.tree(which)
		if err != nil {
			return err
		}
		for _, reduce := range []bool{false, true} {
			res, err := plan.Greedy(s.ctx(), db, t, s.greedyParams(plan.DefaultGreedyParams(reduce)))
			if err != nil {
				return err
			}
			fmt.Fprintf(s.Out, "Query %d, reduce=%v: %d requests\n", which, reduce, res.Requests)
		}
	}
	fmt.Fprintln(s.Out)
	return nil
}

// Ratios prints the §4 headline ratios from the Config A sweeps.
func (s *Suite) Ratios() error {
	fmt.Fprintln(s.Out, "== §4 headline ratios (Config A) ==")
	for _, which := range []int{1, 2} {
		reduced, err := s.sweep(which, true)
		if err != nil {
			return err
		}
		ou, err := s.outerUnion(which, true)
		if err != nil {
			return err
		}
		t, _ := s.tree(which)
		allBits := uint64(1)<<uint(len(t.Edges)) - 1
		best := ByTotal(reduced)[0]
		uni, _ := Find(reduced, allBits)
		fp, _ := Find(reduced, 0)
		fmt.Fprintf(s.Out, "Query %d (total time, reduced): outer-union %.2fx, fully-partitioned %.2fx, unified outer-join %.2fx optimal\n",
			which, ou.TotalMS/best.TotalMS, fp.TotalMS/best.TotalMS, uni.TotalMS/best.TotalMS)
	}
	fmt.Fprintln(s.Out)
	return nil
}

// All runs every experiment in paper order.
func (s *Suite) All() error {
	start := time.Now()
	steps := []func() error{s.Table1, s.Sec2, s.Fig13, s.Fig14, s.Fig15, s.Fig18, s.GreedyStats, s.Ratios, s.SpillAblation}
	for _, f := range steps {
		if err := f(); err != nil {
			return err
		}
	}
	fmt.Fprintf(s.Out, "all experiments completed in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func edgeNames(t *viewtree.Tree, idx []int) []string {
	out := make([]string, len(idx))
	for i, e := range idx {
		edge := t.Edges[e]
		out[i] = fmt.Sprintf("%d:%s→%s", e, edge.Parent.Tag, edge.Child.Tag)
	}
	return out
}

func stats(vals []float64) (mn, md, mx float64) {
	sorted := append([]float64{}, vals...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1]
}

// SpillAblation isolates the server memory model: the same plans with
// unlimited sort memory versus the standard budget, quantifying how much
// of the unified plans' Config-B penalty comes from spilling sorts (§7's
// explanation of why the optimal plans win).
func (s *Suite) SpillAblation() error {
	fmt.Fprintf(s.Out, "== Ablation: sort spilling at Config B (scale %g, budget %d rows) ==\n",
		s.ScaleB, ServerSortBudgetRows)
	fmt.Fprintf(s.Out, "%-22s %-12s %-14s %-14s\n", "plan", "sort memory", "total (ms)", "query (ms)")
	for _, budget := range []int{0, ServerSortBudgetRows} {
		db := tpch.Generate(s.ScaleB, ConfigB.Seed)
		db.SortBudgetRows = budget
		run := NewRunner(db)
		run.Repeat = s.Repeat
		run.Parallelism = s.Parallelism
		t, err := QueryTree(db, 1)
		if err != nil {
			return err
		}
		greedy, err := plan.Greedy(s.ctx(), db, t, s.greedyParams(plan.DefaultGreedyParams(true)))
		if err != nil {
			return err
		}
		mem := "unlimited"
		if budget > 0 {
			mem = fmt.Sprintf("%d rows", budget)
		}
		for _, row := range []struct {
			name string
			p    *plan.Plan
		}{
			{"greedy (optimal)", greedy.BestPlan(t)},
			{"unified outer-join", plan.Unified(t, true)},
		} {
			res, err := run.Run(s.ctx(), row.p, 0)
			if err != nil {
				return err
			}
			fmt.Fprintf(s.Out, "%-22s %-12s %-14.1f %-14.1f\n", row.name, mem, res.TotalMS, res.QueryMS)
		}
	}
	fmt.Fprintln(s.Out)
	return nil
}

// WriteSweepCSV writes one figure's sweep as CSV (bits, streams, reduced,
// query_ms, total_ms, rows, bytes), so the scatter plots of Figures 13 and
// 14 can be regenerated with any plotting tool.
func (s *Suite) WriteSweepCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, which := range []int{1, 2} {
		for _, reduce := range []bool{false, true} {
			results, err := s.sweep(which, reduce)
			if err != nil {
				return err
			}
			name := fmt.Sprintf("fig%d_%s.csv", 12+which, map[bool]string{false: "nonreduced", true: "reduced"}[reduce])
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			w := csv.NewWriter(f)
			if err := w.Write([]string{"bits", "streams", "reduced", "query_ms", "total_ms", "rows", "bytes", "timed_out"}); err != nil {
				f.Close()
				return err
			}
			for _, r := range results {
				rec := []string{
					strconv.FormatUint(r.Bits, 2),
					strconv.Itoa(r.Streams),
					strconv.FormatBool(r.Reduced),
					strconv.FormatFloat(r.QueryMS, 'f', 3, 64),
					strconv.FormatFloat(r.TotalMS, 'f', 3, 64),
					strconv.FormatInt(r.Rows, 10),
					strconv.FormatInt(r.Bytes, 10),
					strconv.FormatBool(r.TimedOut),
				}
				if err := w.Write(rec); err != nil {
					f.Close()
					return err
				}
			}
			w.Flush()
			if err := w.Error(); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(s.Out, "wrote %s (%d plans)\n", filepath.Join(dir, name), len(results))
		}
	}
	return nil
}
