// Remotemiddleware demonstrates the paper's actual deployment topology:
// the relational database runs as a server, and SilkRoute — the middleware
// — runs elsewhere, shipping SQL over the network, asking the remote
// optimizer for cost estimates, and merging the returned tuple streams
// into XML on the client side.
//
// This example hosts both halves in one process over a loopback listener;
// `cmd/silkroute -serve` / `-connect` split them across machines.
//
// Usage: remotemiddleware [-scale 0.002]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"silkroute"
	"silkroute/internal/rxl"
)

func main() {
	scale := flag.Float64("scale", 0.002, "TPC-H scale factor on the server side")
	flag.Parse()

	// A deadline on the whole run: if the server stalls, the middleware
	// returns context.DeadlineExceeded instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Server side: the target database with its optimizer.
	db := silkroute.OpenTPCH(*scale, 42)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go db.Serve(l)
	fmt.Printf("database server listening on %s\n", l.Addr())

	// Client side: the middleware holds only the source description (the
	// schema plus the constraints that drive edge labeling) and the RXL
	// view. Data never leaves the server except as result tuples.
	remote, err := silkroute.Dial(silkroute.Single(l.Addr().String()))
	if err != nil {
		log.Fatal(err)
	}
	view, err := silkroute.ParseRemoteView(remote, silkroute.TPCHSourceDescription(), rxl.Query1Source)
	if err != nil {
		log.Fatal(err)
	}

	rep, err := view.Materialize(ctx, io.Discard, silkroute.Greedy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy plan: %d SQL queries over the wire, %d tuples transferred\n",
		rep.Streams, rep.Rows)
	fmt.Printf("remote optimizer answered %d estimate requests during planning\n",
		rep.EstimateRequests)
	fmt.Printf("query time %v, total time %v\n", rep.QueryTime, rep.TotalTime)
	for i, st := range rep.PerStream {
		fmt.Printf("-- stream %d --\n%.120s…\n", i+1, st.SQL)
	}

	// Cross-check: the same view materialized locally gives the same
	// document.
	local, err := silkroute.ParseView(db, rxl.Query1Source)
	if err != nil {
		log.Fatal(err)
	}
	remoteDoc := capture(ctx, view)
	localDoc := capture(ctx, local)
	if remoteDoc == localDoc {
		fmt.Printf("remote and local documents identical (%d bytes)\n", len(remoteDoc))
	} else {
		log.Fatalf("documents differ: %d vs %d bytes", len(remoteDoc), len(localDoc))
	}
}

func capture(ctx context.Context, v *silkroute.View) string {
	var sb stringBuilder
	if _, err := v.Materialize(ctx, &sb, silkroute.Unified); err != nil {
		log.Fatal(err)
	}
	return sb.s
}

// stringBuilder is a minimal io.Writer capturing output as a string.
type stringBuilder struct{ s string }

func (b *stringBuilder) Write(p []byte) (int, error) {
	b.s += string(p)
	return len(p), nil
}
