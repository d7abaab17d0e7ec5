package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silkroute/internal/plan"
	"silkroute/internal/rxl"
	"silkroute/internal/viewtree"
)

var ctx = context.Background()

func TestStatsHelpers(t *testing.T) {
	results := []PlanResult{
		{Bits: 0, TotalMS: 30, QueryMS: 3},
		{Bits: 1, TotalMS: 10, QueryMS: 7},
		{Bits: 2, TotalMS: 20, QueryMS: 1},
		{Bits: 3, TotalMS: 5, QueryMS: 9, TimedOut: true},
	}
	byTotal := ByTotal(results)
	if len(byTotal) != 3 || byTotal[0].Bits != 1 || byTotal[2].Bits != 0 {
		t.Errorf("ByTotal = %v", byTotal)
	}
	byQuery := ByQuery(results)
	if byQuery[0].Bits != 2 {
		t.Errorf("ByQuery = %v", byQuery)
	}
	if r, ok := Find(results, 2); !ok || r.TotalMS != 20 {
		t.Error("Find failed")
	}
	if _, ok := Find(results, 99); ok {
		t.Error("Find found a ghost")
	}
	if Rank(results, 0) != 2 || Rank(results, 1) != 0 || Rank(results, 3) != -1 {
		t.Error("Rank wrong (timed-out plans must not rank)")
	}
	if m := MeanOfFastest(results, 2, false); m != 15 {
		t.Errorf("MeanOfFastest total = %v, want 15", m)
	}
	if m := MeanOfFastest(results, 2, true); m != 2 {
		t.Errorf("MeanOfFastest query = %v, want 2", m)
	}
	if m := MeanOfFastest(nil, 3, false); m != 0 {
		t.Errorf("MeanOfFastest(nil) = %v", m)
	}
}

func TestStatsMinMedianMax(t *testing.T) {
	mn, md, mx := stats([]float64{5, 1, 3})
	if mn != 1 || md != 3 || mx != 5 {
		t.Errorf("stats = %v %v %v", mn, md, mx)
	}
}

func TestRunnerMeasuresPlan(t *testing.T) {
	db := ConfigA.Open()
	tree, err := QueryTree(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := NewRunner(db)
	run.Repeat = 2
	res, err := run.Run(ctx, plan.FullyPartitioned(tree), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Streams != 10 || res.Rows == 0 || res.Bytes == 0 {
		t.Errorf("result = %+v", res)
	}
	if res.TotalMS < res.QueryMS {
		t.Errorf("total %.2f < query %.2f", res.TotalMS, res.QueryMS)
	}
}

// TestSweepRefusesHugeTrees: a sweep past 30 edges (2^31 plans) is refused
// before anything runs, and a small tree is swept whole, in bitmask order.
func TestSweepRefusesHugeTrees(t *testing.T) {
	db := OpenScaled(0.0002, 11)
	run := NewRunner(db)
	big := &viewtree.Tree{Edges: make([]viewtree.Edge, 31)}
	if _, err := run.Sweep(ctx, big, false, nil); err == nil {
		t.Error("Sweep accepted 2^31 plans")
	}
	q, err := rxl.Parse(rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Sweep(ctx, tree, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("fragment sweep measured %d plans, want 4", len(res))
	}
	for i, r := range res {
		if r.Bits != uint64(i) {
			t.Errorf("result %d has bits %b", i, r.Bits)
		}
	}
}

func TestParallelSweepMatchesSerialOrder(t *testing.T) {
	// A parallel sweep must return results in bitmask order with the
	// same per-plan shape facts (streams, rows, bytes) as the serial
	// one — times differ, the structure may not. Parallelism 0 means one
	// worker per CPU, not serial. A tiny database keeps the 3×512 wire
	// executions affordable.
	if testing.Short() {
		t.Skip("1536 plan executions in -short mode")
	}
	db := OpenScaled(0.0002, 11)
	tree, err := QueryTree(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	serialRun := NewRunner(db)
	serialRun.Parallelism = 1
	serial, err := serialRun.Sweep(ctx, tree, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 0} {
		parRun := NewRunner(db)
		parRun.Parallelism = workers
		var progress bytes.Buffer
		par, err := parRun.Sweep(ctx, tree, true, &progress)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("parallelism %d: sweep returned %d results, serial %d", workers, len(par), len(serial))
		}
		for i := range par {
			if par[i].Bits != uint64(i) {
				t.Fatalf("parallelism %d: result %d carries bits %b, want %b", workers, i, par[i].Bits, i)
			}
			s := serial[i]
			if par[i].Streams != s.Streams || par[i].Rows != s.Rows || par[i].Bytes != s.Bytes || par[i].Reduced != s.Reduced {
				t.Errorf("parallelism %d, plan %b: parallel %+v vs serial %+v", workers, i, par[i], s)
			}
		}
		if !strings.Contains(progress.String(), "swept") {
			t.Errorf("parallelism %d: no progress lines written: %q", workers, progress.String())
		}
	}
}

func TestRunnerTimeoutFlags(t *testing.T) {
	db := ConfigA.Open()
	tree, err := QueryTree(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := NewRunner(db)
	run.Timeout = 1 // nanosecond-scale: everything times out
	res, err := run.Run(ctx, plan.FullyPartitioned(tree), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("timeout not flagged")
	}
}

func TestSuiteTable1AndGreedyStats(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(&buf)
	s.ScaleB = 0.002
	if err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	if err := s.GreedyStats(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "Config") {
		t.Errorf("Table1 output: %s", out)
	}
	if !strings.Contains(out, "estimate requests") || !strings.Contains(out, "Query 2, reduce=true") {
		t.Errorf("GreedyStats output: %s", out)
	}
}

func TestSuiteSec2SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("sec2 at scale in -short mode")
	}
	var buf bytes.Buffer
	s := NewSuite(&buf)
	s.ScaleB = 0.002
	if err := s.Sec2(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fully partitioned", "greedy (optimal)", "unified outer-join", "unified outer-union"} {
		if !strings.Contains(out, want) {
			t.Errorf("Sec2 output missing %q:\n%s", want, out)
		}
	}
}

func TestGreedyFamilyParamsScaleWithData(t *testing.T) {
	// Relative edge costs grow with the data, so the mandatory threshold
	// must deepen proportionally for the optional band to stay put.
	small := GreedyFamilyParams(0.001, true)
	big := GreedyFamilyParams(0.1, true)
	if big.T1 >= small.T1 {
		t.Error("family T1 must deepen (grow more negative) with scale")
	}
	if !small.Reduce {
		t.Error("reduce flag lost")
	}
}

func TestQueryTreeSelectsQueries(t *testing.T) {
	db := ConfigA.Open()
	t1, err := QueryTree(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := QueryTree(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Query 1 nests order under part (depth 4); Query 2 parallels them
	// (depth 3).
	if t1.MaxDepth() != 4 || t2.MaxDepth() != 3 {
		t.Errorf("depths: q1=%d q2=%d", t1.MaxDepth(), t2.MaxDepth())
	}
}

func TestWriteSweepCSV(t *testing.T) {
	var out bytes.Buffer
	s := NewSuite(&out)
	// Pre-populate the sweep cache so the export needs no measurements.
	for _, which := range []int{1, 2} {
		if _, err := s.tree(which); err != nil {
			t.Fatal(err)
		}
		for _, reduce := range []bool{false, true} {
			key := fmt.Sprintf("q%d-%v", which, reduce)
			s.sweeps[key] = []PlanResult{
				{Bits: 0, Streams: 10, Reduced: reduce, QueryMS: 1.5, TotalMS: 3.25, Rows: 7, Bytes: 99},
				{Bits: 511, Streams: 1, Reduced: reduce, QueryMS: 9, TotalMS: 12, Rows: 8, Bytes: 100, TimedOut: true},
			}
		}
	}
	dir := t.TempDir()
	if err := s.WriteSweepCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig13_nonreduced.csv", "fig13_reduced.csv", "fig14_nonreduced.csv", "fig14_reduced.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		content := string(b)
		if !strings.HasPrefix(content, "bits,streams,reduced,query_ms,total_ms,rows,bytes,timed_out\n") {
			t.Errorf("%s header wrong: %.80s", name, content)
		}
		if !strings.Contains(content, "111111111,1,") || !strings.Contains(content, "true\n") {
			t.Errorf("%s rows wrong:\n%s", name, content)
		}
	}
}
