// Command benchmark is the repo's one benchmark: four workloads, the
// end-to-end metrics of BENCHMARK.json measured with obs off, and a staged
// traced run per workload for the per-layer metrics. README.md has the
// tables and the reasons.
//
//	go run ./benchmark                          every workload, untraced and traced, one JSON document
//	go run ./benchmark -workload W -trace 0|1   one run; the last line of stdout is its result
//	go run ./benchmark -compare a.json b.json   judge two sides by BENCHMARK.json's bounds
//	go run ./benchmark -selftest                flip one golden byte; must exit non-zero
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// outDir receives the span files and, in a full run, each child's result.
const outDir = "benchmark/out"

// document is what a full run prints: every metric of every workload by
// name and unit with its sample count, and what produced them.
type document struct {
	Seed       int64                   `json:"seed"`
	Seconds    float64                 `json:"seconds"`
	Quick      bool                    `json:"quick"`
	Nproc      int                     `json:"nproc"`
	GoMaxProcs int                     `json:"gomaxprocs"`
	Commit     string                  `json:"commit"`
	GoVersion  string                  `json:"go_version"`
	Workloads  map[string]*workloadDoc `json:"workloads"`
}

// workloadDoc joins a workload's untraced and traced run.
type workloadDoc struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	FailRatio float64   `json:"fail_ratio"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer"`
}

// resultLine is the last line a single run prints: the form the driver of
// BENCHMARK.json reads.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders a run as the declared metrics of its kind, each exactly
// once. A per-layer metric of a layer the workload never enters (wire on
// export-cold) is absent from the run's own result; the driver wants every
// declared name on every workload, so here it reads 0.
func line(c *contract, res *runResult) resultLine {
	defs := c.EndToEnd
	if res.Traced {
		defs = c.PerLayer
	}
	out := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]lineMetric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = lineMetric{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func main() {
	workloadName := flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
	seed := flag.Int64("seed", 42, "seed of the TPC-H generator and the operation script")
	seconds := flag.Float64("seconds", 0, "length of a run's timed window (default: BENCHMARK.json's run_seconds; 0.5 with -quick)")
	traced := flag.Int("trace", 0, "1: the staged traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
	out := flag.String("out", "", "also write the JSON result to this file")
	quick := flag.Bool("quick", false, "tiny database and windows: a smoke run, not a measurement")
	selftest := flag.Bool("selftest", false, "flip one byte of every golden; the run must then exit non-zero")
	doCompare := flag.Bool("compare", false, "compare two sides: -compare base.json[,base2.json...] new.json[,new2.json...]")
	flag.Parse()

	c, err := loadContract()
	if err != nil {
		fatal(err)
	}
	if *doCompare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two arguments, each a comma-separated list of result files"))
		}
		base, err := loadSide(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		change, err := loadSide(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if compare(c, base, change, os.Stdout) {
			os.Exit(1)
		}
		return
	}

	cfg := config{seed: *seed, seconds: *seconds, quick: *quick || *selftest, selftest: *selftest}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(c.RunSeconds)
		if cfg.quick {
			cfg.seconds = 0.5
		}
	}

	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		res, err := runWorkload(w, cfg, *traced == 1, outDir)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeJSON(*out, res); err != nil {
				fatal(err)
			}
		}
		blob, err := json.Marshal(line(c, res))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(blob))
		if res.Failed > 0 {
			os.Exit(1)
		}
		return
	}

	doc, missed := runAll(cfg)
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			fatal(err)
		}
	}
	blob, _ := json.MarshalIndent(doc, "", "  ")
	fmt.Println(string(blob))
	switch {
	case cfg.selftest && len(missed) == 0:
		fmt.Fprintln(os.Stderr, "benchmark: selftest: every run caught the flipped golden byte; exiting 1 as designed")
		os.Exit(1)
	case cfg.selftest:
		fmt.Fprintln(os.Stderr, "benchmark: selftest FAILED: the flipped golden byte went unnoticed by", strings.Join(missed, ", "))
	case len(missed) < 2*len(workloads):
		fmt.Fprintln(os.Stderr, "benchmark: documents failed or differed from their golden")
		os.Exit(1)
	}
}

// runAll runs every workload untraced and traced, each run in a child
// process of its own so that heap, GC state and obs do not leak from one
// into the next. missed names the runs in which no document failed.
func runAll(cfg config) (*document, []string) {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	doc := &document{
		Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
		Nproc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit: commit(), GoVersion: runtime.Version(),
		Workloads: make(map[string]*workloadDoc),
	}
	var missed []string
	for _, w := range workloads {
		wd := &workloadDoc{}
		doc.Workloads[w.name] = wd
		for trace := 0; trace <= 1; trace++ {
			run := fmt.Sprintf("%s/trace=%d", w.name, trace)
			path := filepath.Join(outDir, fmt.Sprintf("run-%s-%d.json", w.name, trace))
			os.Remove(path)
			args := []string{"-workload", w.name, "-trace", fmt.Sprint(trace), "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-out", path}
			if cfg.quick {
				args = append(args, "-quick")
			}
			if cfg.selftest {
				args = append(args, "-selftest")
			}
			fmt.Fprintln(os.Stderr, "benchmark: running", run)
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run() // exit 1 with a result file is a correctness failure, reported below
			blob, err := os.ReadFile(path)
			if err != nil {
				fatal(fmt.Errorf("%s: %v (child: %v)", run, err, runErr))
			}
			var res runResult
			if err := json.Unmarshal(blob, &res); err != nil {
				fatal(fmt.Errorf("%s: %w", run, err))
			}
			wd.Attempted += res.Attempted
			wd.Failed += res.Failed
			if res.Failed == 0 {
				missed = append(missed, run)
			}
			if trace == 1 {
				wd.PerLayer = res.Metrics
			} else {
				wd.EndToEnd = res.Metrics
			}
		}
		wd.FailRatio = float64(wd.Failed) / float64(max(wd.Attempted, 1))
	}
	return doc, missed
}

// commit names the checkout, when it is one.
func commit() string {
	blob, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(blob))
}
