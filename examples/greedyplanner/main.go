// Greedyplanner looks inside the §5 plan-generation algorithm: it prints
// the view-tree edges with their multiplicity labels, the mandatory and
// optional edges the greedy search selects, the SQL it generates, and the
// number of cost-estimate requests it sent to the engine (the paper's
// "oracle economy" result).
//
// Usage: greedyplanner [-scale 0.002] [-q 1|2]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"

	"silkroute"
	"silkroute/internal/rxl"
)

func main() {
	scale := flag.Float64("scale", 0.002, "TPC-H scale factor")
	which := flag.Int("q", 1, "paper query: 1 or 2")
	flag.Parse()
	ctx := context.Background()

	src := rxl.Query1Source
	if *which == 2 {
		src = rxl.Query2Source
	}
	db := silkroute.OpenTPCH(*scale, 42)
	view, err := silkroute.ParseView(db, src)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Query %d view tree: %d nodes, %d edges → %d candidate plans\n\n",
		*which, view.NodeCount(), view.EdgeCount(), 1<<view.EdgeCount())
	labels := view.EdgeLabels()
	for i, e := range labels {
		fmt.Printf("  edge %d: %s\n", i, e)
	}

	rep, err := view.Materialize(ctx, io.Discard, silkroute.Greedy)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ngreedy selection (cost(q) = A·evalCost + B·dataSize against engine estimates):\n")
	fmt.Printf("  mandatory edges: %v\n", describe(labels, rep.GreedyMandatory))
	fmt.Printf("  optional edges:  %v\n", describe(labels, rep.GreedyOptional))
	fmt.Printf("  estimate requests: %d (exhaustive bound would be %d²=%d)\n",
		rep.EstimateRequests, view.EdgeCount(), view.EdgeCount()*view.EdgeCount())
	fmt.Printf("  resulting plan: %d tuple streams, %d rows, %v total\n\n",
		rep.Streams, rep.Rows, rep.TotalTime)

	for i, st := range rep.PerStream {
		fmt.Printf("-- stream %d --\n%s\n\n", i+1, st.SQL)
	}
}

func describe(labels []string, edges []int) []string {
	out := make([]string, len(edges))
	for i, e := range edges {
		out[i] = fmt.Sprintf("%d(%s)", e, labels[e])
	}
	return out
}
