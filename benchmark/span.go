package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (never inside the program). Times are nanoseconds since the trace
// began; Parent indexes the same trace, -1 for a root; spans of one
// document share Doc.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Doc    int    `json:"doc"`
}

// trace collects spans in memory. Traced runs drive the pipeline from one
// goroutine, so it needs no lock.
type trace struct {
	t0    time.Time
	spans []span
}

func newTrace() *trace { return &trace{t0: time.Now()} }

func (t *trace) begin(name string, parent, doc int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Doc: doc})
	return len(t.spans) - 1
}

func (t *trace) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// write stores the trace as one JSON array.
func (t *trace) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover. Children may overlap each other (streams opened
// concurrently) and may stick out of the parent; the covered part is the
// union of the child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// layerOf maps a span name to its layer: "engine.exec[3]" is "engine.exec".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelfMS sums self time per (layer, document) and returns, per layer,
// one value in milliseconds for every document that called it.
func layerSelfMS(spans []span) map[string][]float64 {
	type key struct {
		layer string
		doc   int
	}
	self := selfTimes(spans)
	sums := make(map[key]int64)
	var order []key
	for i, s := range spans {
		k := key{layerOf(s.Name), s.Doc}
		if _, seen := sums[k]; !seen {
			order = append(order, k)
		}
		sums[k] += self[i]
	}
	out := make(map[string][]float64)
	for _, k := range order {
		out[k.layer] = append(out[k.layer], float64(sums[k])/1e6)
	}
	return out
}
