// Command silkroute materializes an XML view of a relational database, the
// end-to-end pipeline of the paper: RXL view in, XML document out.
//
// The database is either the built-in TPC-H generator or a directory of
// CSV files matching the TPC-H fragment schema (see cmd/tpchgen). The view
// is an RXL file, or one of the paper's built-in queries.
//
// It can also run as a standalone database server ("-serve"), and a
// middleware instance on another machine can evaluate views against it
// ("-connect"), reproducing the paper's client/server deployment. -connect
// takes a topology string: one address, a comma-separated replica group
// of the same data, or ";"-separated shards of replica groups whose
// streams are scattered and merged back. -resume, -breaker and
// -breaker-cooldown shape the connection, so they need -connect; so does
// client-side -chaos, which wraps a single endpoint's dialer.
//
// Usage:
//
//	silkroute -query q1 -scale 0.001 -strategy greedy > out.xml
//	silkroute -view myview.rxl -data ./tpch-data -strategy unified -explain
//	silkroute -serve :7070 -scale 0.01            # database server
//	silkroute -connect host:7070 -query q1        # remote middleware
//	silkroute -connect a:7070,b:7070 -resume 3 -query q1  # replica set
//	silkroute -serve :7070 -shard 0/2             # partition 0 of 2
//	silkroute -connect "s0=a:7070;s1=b:7070" -query q1   # scatter-gather
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"silkroute"
	"silkroute/internal/chaos"
	"silkroute/internal/obs"
	"silkroute/internal/rxl"
)

func main() {
	queryName := flag.String("query", "", "built-in view: q1, q2, or fragment")
	viewFile := flag.String("view", "", "path to an RXL view definition")
	scale := flag.Float64("scale", 0.001, "TPC-H scale factor when generating data")
	seed := flag.Int64("seed", 42, "TPC-H generator seed")
	data := flag.String("data", "", "directory of <Relation>.csv files (instead of generating)")
	var strategies []string
	for _, s := range silkroute.Strategies() {
		strategies = append(strategies, s.String())
	}
	strategy := flag.String("strategy", "greedy", "plan strategy: "+strings.Join(strategies, ", "))
	explain := flag.Bool("explain", false, "print the plan and SQL to stderr")
	noReduce := flag.Bool("no-reduce", false, "disable view-tree reduction")
	parallelism := flag.Int("parallelism", 0, "concurrent partition queries (0 = one per CPU, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "abort materialization after this long (0 = no limit)")
	serve := flag.String("serve", "", "run as a database server on this address instead of materializing")
	connect := flag.String("connect", "", `evaluate against remote silkroute -serve databases: "a:7070", replicas "a:7070,b:7070", or shards "s0=a:7070;s1=b:7070"`)
	shardOf := flag.String("shard", "", "with -serve: serve partition i of n as \"i/n\" (see -shard-by)")
	shardBy := flag.String("shard-by", "Supplier", "with -shard: relation partitioned by primary-key hash; all others replicated")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (enables observability)")
	chaosSpec := flag.String("chaos", "", "inject faults, e.g. \"seed=7,cutrow=100\" (server: kill streams; client: wrap the one -connect endpoint's dialer)")
	resume := flag.Int("resume", 0, "reopen a died tuple stream up to N times at its frontier, then once from the top (remote only; 0 = fail on stream loss)")
	breakerThreshold := flag.Int("breaker", 0, "open a circuit breaker after N consecutive transport failures (remote only; 0 = off)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open breaker waits before probing (0 = 1s default)")
	planCache := flag.Bool("plan-cache", false, "memoize compiled plans across materializations (see -repeat)")
	fragCache := flag.Int64("fragment-cache", 0, "cache materialized XML under this byte budget (0 = off, -1 = unbounded)")
	repeat := flag.Int("repeat", 1, "materialize the view N times (first run writes to stdout; later runs exercise the caches)")
	flag.Parse()

	// Interrupt (^C) or SIGTERM cancels the context; every layer below —
	// planner, SQL engine, wire client — unwinds promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *metricsAddr != "" {
		addr, err := obs.ListenAndServe(ctx, *metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "silkroute: metrics on http://%s/metrics\n", addr)
	}

	if *serve != "" {
		db := loadDB(*scale, *seed, *data)
		if *shardOf != "" {
			i, n, err := parseShard(*shardOf)
			if err != nil {
				fatal(err)
			}
			shard, err := db.Partition(*shardBy, i, n)
			if err != nil {
				fatal(err)
			}
			db = shard
			fmt.Fprintf(os.Stderr, "silkroute: serving shard %d of %d (partitioned by %s)\n", i, n, *shardBy)
		}
		l, err := net.Listen("tcp", *serve)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "silkroute: serving database on %s\n", l.Addr())
		if *chaosSpec != "" {
			fmt.Fprintf(os.Stderr, "silkroute: injecting faults: %s\n", *chaosSpec)
			err = db.ServeChaosContext(ctx, l, *chaosSpec)
		} else {
			err = db.ServeContext(ctx, l)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	strat, err := silkroute.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}

	src, err := viewSource(*queryName, *viewFile)
	if err != nil {
		fatal(err)
	}

	opts := []silkroute.Option{
		silkroute.WithReduce(!*noReduce),
		silkroute.WithParallelism(*parallelism),
	}
	if *resume > 0 {
		opts = append(opts, silkroute.WithResume(*resume))
	}
	if *breakerThreshold > 0 {
		opts = append(opts, silkroute.WithBreaker(*breakerThreshold, *breakerCooldown))
	}
	if *planCache {
		opts = append(opts, silkroute.WithPlanCache())
	}
	if *fragCache != 0 {
		opts = append(opts, silkroute.WithFragmentCache(*fragCache))
	}

	// Every remote mode is one Topology handed to one Dial; the zero
	// topology means the database is local.
	var connFlags []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "resume", "breaker", "breaker-cooldown", "chaos":
			connFlags = append(connFlags, "-"+f.Name)
		}
	})
	topo, err := topology(*connect, *chaosSpec, connFlags)
	if err != nil {
		fatal(err)
	}
	if *chaosSpec != "" {
		fmt.Fprintf(os.Stderr, "silkroute: injecting faults: %s\n", *chaosSpec)
	}
	var view *silkroute.View
	if topo.IsZero() {
		db := loadDB(*scale, *seed, *data)
		view, err = silkroute.ParseView(db, src, opts...)
	} else {
		// Remote middleware mode: the TPC-H schema is the local source
		// description; data and optimizer live on the server.
		remote, derr := silkroute.Dial(topo, opts...)
		if derr != nil {
			fatal(derr)
		}
		defer remote.Close()
		view, err = silkroute.ParseRemoteView(remote, silkroute.TPCHSourceDescription(), src, opts...)
	}
	if err != nil {
		fatal(err)
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	out := bufio.NewWriter(os.Stdout)
	rep, err := view.Materialize(ctx, out, strat)
	if err != nil {
		fatal(err)
	}
	if err := out.Flush(); err != nil {
		fatal(err)
	}

	// Repeat runs hit the caches; the document already went to stdout, so
	// they write to a sink and report per-run cache behaviour on stderr.
	for i := 1; i < *repeat; i++ {
		r, err := view.Materialize(ctx, io.Discard, strat)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "silkroute: run %d: total=%v plan-cached=%v fragment-cached=%v\n",
			i+1, r.TotalTime, r.PlanCached, r.FragmentCached)
	}

	if *explain {
		// The plan family first (what Explain reports), then how the run
		// actually went, stream by stream.
		e, err := view.Explain(ctx, strat)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(os.Stderr, e)
		fmt.Fprintf(os.Stderr, "executed: streams: %d  rows: %d\n", rep.Streams, rep.Rows)
		fmt.Fprintf(os.Stderr, "query time: %v  total time: %v\n", rep.QueryTime, rep.TotalTime)
		for i, st := range rep.PerStream {
			fmt.Fprintf(os.Stderr, "  stream %d: rows=%d query=%v wall=%v", i+1, st.Rows, st.QueryTime, st.WallTime)
			if st.Bytes > 0 {
				fmt.Fprintf(os.Stderr, " bytes=%d", st.Bytes)
			}
			if st.Resumes > 0 {
				fmt.Fprintf(os.Stderr, " resumes=%d", st.Resumes)
			}
			if st.Failovers > 0 {
				fmt.Fprintf(os.Stderr, " failovers=%d", st.Failovers)
			}
			if topo.Shards() == 1 && topo.Replicas(0) > 1 {
				fmt.Fprintf(os.Stderr, " replica=%d", st.Replica)
			}
			fmt.Fprintln(os.Stderr)
			for _, ss := range st.Shards {
				fmt.Fprintf(os.Stderr, "    shard %d: rows=%d bytes=%d", ss.Shard, ss.Rows, ss.Bytes)
				if ss.Resumes > 0 {
					fmt.Fprintf(os.Stderr, " resumes=%d", ss.Resumes)
				}
				if ss.Failovers > 0 {
					fmt.Fprintf(os.Stderr, " failovers=%d", ss.Failovers)
				}
				fmt.Fprintf(os.Stderr, " replica=%d\n", ss.Replica)
			}
		}
	}
}

// topology reads -connect into the backend Topology; the zero Topology
// means the database is local. It refuses what would otherwise be dropped
// silently: connection flags (connFlags, the ones given) without -connect,
// and client-side chaos, which wraps one dialer, on more than one endpoint.
func topology(connect, chaosSpec string, connFlags []string) (silkroute.Topology, error) {
	if connect == "" {
		if len(connFlags) > 0 {
			return silkroute.Topology{}, fmt.Errorf("without -connect there is no remote connection for %s", strings.Join(connFlags, ", "))
		}
		return silkroute.Topology{}, nil
	}
	topo, err := silkroute.ParseTopology(connect)
	if err != nil || chaosSpec == "" {
		return topo, err
	}
	if topo.Shards() != 1 || topo.Replicas(0) != 1 {
		return silkroute.Topology{}, fmt.Errorf("client-side -chaos wraps one endpoint's dialer; -connect %q names more", connect)
	}
	sp, err := chaos.ParseSpec(chaosSpec)
	if err != nil {
		return silkroute.Topology{}, err
	}
	addr := topo.String()
	var d net.Dialer
	return silkroute.SingleFunc(chaos.New(sp).WrapDial(func(ctx context.Context) (net.Conn, error) {
		return d.DialContext(ctx, "tcp", addr)
	})), nil
}

// parseShard reads -shard's "i/n".
func parseShard(s string) (int, int, error) {
	is, ns, _ := strings.Cut(s, "/")
	i, ierr := strconv.Atoi(is)
	n, nerr := strconv.Atoi(ns)
	if ierr != nil || nerr != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: want i/n", s)
	}
	return i, n, nil
}

// loadDB opens the TPC-H database from the generator or a CSV directory.
func loadDB(scale float64, seed int64, data string) *silkroute.DB {
	if data == "" {
		return silkroute.OpenTPCH(scale, seed)
	}
	db := silkroute.OpenTPCH(0, seed) // empty tables, same schema
	if err := db.LoadCSVDir(data); err != nil {
		fatal(err)
	}
	return db
}

func viewSource(queryName, viewFile string) (string, error) {
	switch {
	case viewFile != "":
		b, err := os.ReadFile(viewFile)
		if err != nil {
			return "", err
		}
		return string(b), nil
	case queryName == "q1":
		return rxl.Query1Source, nil
	case queryName == "q2":
		return rxl.Query2Source, nil
	case queryName == "fragment":
		return rxl.FragmentSource, nil
	case queryName == "":
		return "", fmt.Errorf("specify -query q1|q2|fragment or -view file.rxl")
	default:
		return "", fmt.Errorf("unknown built-in query %q", queryName)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silkroute:", err)
	os.Exit(1)
}
