package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Verdicts of one (metric, workload) cell.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of two sides of one cell. Each side is
// summarised by its median; a side whose own runs spread wider than the
// bound cannot resolve a change of the bound's size, so the cell is
// unresolved rather than unchanged.
func judge(def metricDef, base, change []float64) string {
	baseMed, changeMed := median(base), median(change)
	switch {
	case spread(base) > def.Bound || spread(change) > def.Bound:
		return verdictUnresolved
	case def.Better == "lower" && changeMed > baseMed*(1+def.Bound),
		def.Better == "higher" && changeMed < baseMed*(1-def.Bound):
		return verdictWorse
	}
	return verdictOK
}

// side is the documents of one side of a comparison.
type side []*document

func loadSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(blob, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s = append(s, &d)
	}
	return s, nil
}

// values collects one cell's value from every run of the side that has it.
func (s side) values(workload, name string, perLayer bool) []float64 {
	var out []float64
	for _, d := range s {
		w := d.Workloads[workload]
		if w == nil {
			continue
		}
		set := w.EndToEnd
		if perLayer {
			set = w.PerLayer
		}
		if m, ok := set[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func (s side) failRatio(workload string) float64 {
	worst := 0.0
	for _, d := range s {
		if w := d.Workloads[workload]; w != nil {
			worst = max(worst, w.FailRatio)
		}
	}
	return worst
}

// ungated returns, sorted, the end-to-end metrics the side's documents
// carry for a workload that BENCHMARK.json does not declare: measured and
// shown, but too unsteady from run to run to carry a bound.
func (s side) ungated(c *contract, workload string) []metricDef {
	declared := make(map[string]bool)
	for _, def := range c.EndToEnd {
		declared[def.Name] = true
	}
	var out []metricDef
	for _, d := range s {
		if w := d.Workloads[workload]; w != nil {
			for name, m := range w.EndToEnd {
				if !declared[name] {
					declared[name] = true
					out = append(out, metricDef{Name: name, Unit: m.Unit})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// compare prints one row per (metric, workload) cell — base, new, the
// ratio with its base, and a verdict for the bounded end-to-end metrics —
// and reports whether any cell is worse or any workload's fail ratio rose.
func compare(c *contract, base, change side, out io.Writer) (worse bool) {
	row := func(workload string, def metricDef, perLayer, gated bool) {
		b, n := base.values(workload, def.Name, perLayer), change.values(workload, def.Name, perLayer)
		if len(b) == 0 || len(n) == 0 {
			return
		}
		bm, nm := median(b), median(n)
		verdict := "-" // no bound: the metric explains, it does not gate
		if gated {
			verdict = judge(def, b, n)
			worse = worse || verdict == verdictWorse
		}
		ratio := "     -" // a base of 0 has no ratio
		if bm != 0 {
			ratio = fmt.Sprintf("%6.3fx", nm/bm)
		}
		fmt.Fprintf(out, "%-15s %-34s %14.4f %14.4f  %s of %.4f %-5s  %s\n",
			workload, def.Name, bm, nm, ratio, bm, def.Unit, verdict)
	}
	fmt.Fprintf(out, "%-15s %-34s %14s %14s  %s\n", "workload", "metric", "base", "new", "ratio with its base, verdict")
	for _, w := range c.Workloads {
		for _, def := range c.EndToEnd {
			row(w.Name, def, false, true)
		}
		for _, def := range base.ungated(c, w.Name) {
			row(w.Name, def, false, false)
		}
		bf, nf := base.failRatio(w.Name), change.failRatio(w.Name)
		verdict := verdictOK
		if nf > bf {
			verdict, worse = verdictWorse, true
		}
		fmt.Fprintf(out, "%-15s %-34s %14.6f %14.6f  %s\n", w.Name, "fail_ratio", bf, nf, verdict)
		for _, def := range c.PerLayer {
			row(w.Name, def, true, false)
		}
	}
	return worse
}
