// Command experiments regenerates every table and figure of the paper's
// evaluation section against the in-process engine and wire protocol.
//
// Usage:
//
//	experiments                 # run everything (paper order)
//	experiments -exp fig13      # one experiment: table1 sec2 fig13 fig14
//	                            # fig15 fig18 greedystats ratios spill
//	experiments -scaleB 0.1     # full Config B scale (slower)
//	experiments -repeat 3       # keep the fastest of 3 runs per plan
//	experiments -parallel 8     # sweep plans under 8 workers (exploration;
//	                            # run serially for publishable timings)
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof
//
// ^C (or SIGTERM) cancels the run: the in-flight sweep unwinds promptly
// instead of finishing the whole experiment.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"silkroute/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, sec2, fig13, fig14, fig15, fig18, greedystats, ratios, spill")
	scaleB := flag.Float64("scaleB", 0.02, "Config B scale factor (paper ratio is 0.1 = 100x Config A)")
	repeat := flag.Int("repeat", 1, "runs per plan (fastest kept)")
	parallel := flag.Int("parallel", 1, "concurrent plan measurements and greedy estimates (0 = one per CPU, 1 = serial)")
	csvDir := flag.String("csv", "", "also write the Figure 13/14 sweeps as CSV files into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	s := bench.NewSuite(os.Stdout)
	s.Context = ctx
	s.ScaleB = *scaleB
	s.Repeat = *repeat
	s.Parallelism = *parallel

	steps := map[string]func() error{
		"all":         s.All,
		"table1":      s.Table1,
		"sec2":        s.Sec2,
		"fig13":       s.Fig13,
		"fig14":       s.Fig14,
		"fig15":       s.Fig15,
		"fig18":       s.Fig18,
		"greedystats": s.GreedyStats,
		"ratios":      s.Ratios,
		"spill":       s.SpillAblation,
	}
	f, ok := steps[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	err := f()
	if err == nil && *csvDir != "" {
		err = s.WriteSweepCSV(*csvDir)
	}
	if *memProfile != "" {
		mf, merr := os.Create(*memProfile)
		if merr != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", merr)
			os.Exit(1)
		}
		runtime.GC()
		if werr := pprof.WriteHeapProfile(mf); werr != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", werr)
			os.Exit(1)
		}
		mf.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiment failed: %v\n", err)
		os.Exit(1)
	}
}
