package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestPercentileAndSampleRule(t *testing.T) {
	var vals []float64
	for i := 1; i <= 100; i++ {
		vals = append(vals, float64(i))
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// p90 needs ten samples beyond it: 100 documents carry it, 99 do not.
	if !supported(100, 0.9) || supported(99, 0.9) {
		t.Errorf("p90 rule: supported(100)=%v supported(99)=%v, want true false", supported(100, 0.9), supported(99, 0.9))
	}
	if !supported(20, 0.5) || supported(19, 0.5) {
		t.Errorf("p50 rule: supported(20)=%v supported(19)=%v, want true false", supported(20, 0.5), supported(19, 0.5))
	}
}

// The spread printed by -compare must be the one the driver computes with
// Python's statistics.quantiles(values, n=4).
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v, want 2.75 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v, want 1 4", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "doc", Start: 0, End: 100, Parent: -1},
		{Name: "wire.open[0]", Start: 10, End: 40, Parent: 0},
		{Name: "wire.open[1]", Start: 30, End: 60, Parent: 0},  // overlaps its sibling
		{Name: "tagger.write", Start: 90, End: 120, Parent: 0}, // sticks out of the parent
		{Name: "inner", Start: 15, End: 20, Parent: 1},
		{Name: "wire.open[2]", Start: 35, End: 38, Parent: 0}, // inside what is already covered
	}
	want := []int64{40, 25, 30, 30, 5, 3}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	perDoc := layerSelfMS(spans)
	if got := perDoc["wire.open"]; len(got) != 1 || got[0] != 58e-6 {
		t.Errorf("wire.open self per document = %v, want one value of 58ns", got)
	}
}

func TestVerifier(t *testing.T) {
	golden := []byte("<document><a>1</a></document>")
	var v verifier
	v.reset(golden)
	v.Write(golden[:10])
	v.Write(golden[10:])
	if !v.ok() || v.first == 0 {
		t.Errorf("a chunked golden must verify and note its first byte: ok=%v first=%v", v.ok(), v.first)
	}
	for name, body := range map[string][]byte{
		"truncated": golden[:len(golden)-1],
		"extended":  append(append([]byte(nil), golden...), 'x'),
		"flipped":   bytes.Replace(golden, []byte("1"), []byte("2"), 1),
	} {
		v.reset(golden)
		v.Write(body)
		if v.ok() {
			t.Errorf("a %s document verified", name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "doc_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "xml_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		name         string
		def          metricDef
		base, change []float64
		want         string
	}{
		{"within the bound", lower, []float64{100, 101, 99}, []float64{108, 109, 107}, verdictOK},
		{"beyond the bound", lower, []float64{100, 101, 99}, []float64{112, 113, 111}, verdictWorse},
		{"better is never worse", lower, []float64{100, 101, 99}, []float64{50, 51, 49}, verdictOK},
		{"throughput fell", higher, []float64{100, 101, 99}, []float64{88, 89, 87}, verdictWorse},
		{"throughput rose", higher, []float64{100, 101, 99}, []float64{130, 131, 129}, verdictOK},
		{"base too noisy to tell", lower, []float64{100, 120, 80}, []float64{112, 113, 111}, verdictUnresolved},
		{"new side too noisy to tell", lower, []float64{100, 101, 99}, []float64{100, 140, 90}, verdictUnresolved},
		{"single runs have no spread", lower, []float64{100}, []float64{111}, verdictWorse},
	} {
		if got := judge(tc.def, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	c := &contract{Workloads: []workloadDef{{"export-cold"}}, EndToEnd: []metricDef{lower}}
	doc := func(p50, failRatio float64) side {
		return side{{Workloads: map[string]*workloadDoc{"export-cold": {
			FailRatio: failRatio,
			EndToEnd:  metricSet{"doc_p50_ms": {Value: p50, Unit: "ms"}},
		}}}}
	}
	var out strings.Builder
	if compare(c, doc(100, 0), doc(105, 0), &out) {
		t.Errorf("a change within the bound was judged worse:\n%s", out.String())
	}
	if !compare(c, doc(100, 0), doc(120, 0), &out) {
		t.Error("a change beyond the bound was not judged worse")
	}
	if !compare(c, doc(100, 0), doc(100, 0.001), &out) {
		t.Error("a rise in fail_ratio was not judged worse")
	}
}

// A gain in one stage must never read as a regression in another metric:
// with the real BENCHMARK.json, a document whose tagger got 40 % faster
// while its first byte arrives when it did (so the first byte's share of
// the document rises, and the median improves more than the tail) must
// come out ok in every cell.
func TestFasterDocumentWithUnchangedFirstByteIsOK(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	run := func(docMS, p90MS, mbPerS float64) side {
		return side{{Workloads: map[string]*workloadDoc{"export-cold": {EndToEnd: metricSet{
			"setup_s":           {Value: 0.9, Unit: "s"},
			"doc_p50_ms":        {Value: docMS, Unit: "ms"},
			"doc_p90_ms":        {Value: p90MS, Unit: "ms"},
			"first_byte_p50_ms": {Value: 45, Unit: "ms"},
			"xml_mb_per_s":      {Value: mbPerS, Unit: "MB/s"},
			"alloc_mb_per_doc":  {Value: 120, Unit: "MB"},
			"allocs_per_doc":    {Value: 400000, Unit: "count"},
			"peak_heap_mb":      {Value: 50, Unit: "MB"},
		}}}}}
	}
	var out strings.Builder
	if compare(c, run(133, 144, 4.4), run(98, 140, 5.9), &out) {
		t.Errorf("a faster document with an unchanged first byte was judged worse:\n%s", out.String())
	}
	for _, d := range c.EndToEnd {
		if !strings.Contains(out.String(), d.Name) {
			t.Errorf("the comparison has no row for %s:\n%s", d.Name, out.String())
		}
	}
}

// quickConfig is -quick with a window short enough for `go test`.
func quickConfig() config { return config{seed: 42, seconds: 0.15, quick: true} }

// TestQuickSmoke runs every workload end to end, untraced and traced, at
// -quick size: no document may fail, every end-to-end metric of
// BENCHMARK.json must come out of every workload, every per-layer metric
// must be declared there, and every declared one must come out of some
// workload.
func TestQuickSmoke(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(workloads))
	}
	declared := make(map[string]string)
	for _, d := range c.PerLayer {
		declared[d.Name] = d.Unit
	}
	produced := make(map[string]bool)
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, c.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, quickConfig(), traced, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d documents failed", w.name, traced, res.Failed, res.Attempted)
			}
			if _, err := json.Marshal(line(c, res)); err != nil {
				t.Errorf("%s traced=%v: result does not marshal: %v", w.name, traced, err)
			}
			if !traced {
				for _, d := range c.EndToEnd {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", w.name, d.Name, m, ok, d.Unit)
					}
				}
				// doc_p90_ms is measured and shown but carries no bound,
				// so BENCHMARK.json does not declare it.
				if want := len(c.EndToEnd) + 1; len(res.Metrics) != want || !(res.Metrics["doc_p90_ms"].Value > 0) {
					t.Errorf("%s: %d end-to-end metrics, want BENCHMARK.json's %d and doc_p90_ms", w.name, len(res.Metrics), len(c.EndToEnd))
				}
				continue
			}
			for name, m := range res.Metrics {
				produced[name] = true
				if unit, ok := declared[name]; !ok || unit != m.Unit {
					t.Errorf("%s: per-layer metric %s (%s) is not declared so in BENCHMARK.json", w.name, name, m.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: per-layer metric %s = %v", w.name, name, m.Value)
				}
			}
			// wire.* belongs to the workload that crosses wire and is
			// absent — not zero — everywhere else.
			_, hasWire := res.Metrics["wire.rows"]
			if hasWire != (w.name == "export-sharded") {
				t.Errorf("%s: wire.rows present = %v", w.name, hasWire)
			}
		}
	}
	for name := range declared {
		if !produced[name] {
			t.Errorf("BENCHMARK.json declares per-layer metric %s, no workload produces it", name)
		}
	}
}

// The correctness gate must fire: with one golden byte flipped, every
// document of the in-process path and of the HTTP path counts as failed.
func TestSelftestIsCaught(t *testing.T) {
	cfg := quickConfig()
	cfg.selftest = true
	for _, name := range []string{"export-cold", "serve-hot"} {
		w, _ := findWorkload(name)
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, cfg, traced, "")
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != res.Attempted {
				t.Errorf("%s traced=%v: %d of %d documents failed, want all", name, traced, res.Failed, res.Attempted)
			}
		}
	}
}
