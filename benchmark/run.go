package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metric is one named measurement. Samples is how many observations stand
// behind a timing or a ratio; 0 for a plain count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metricSet map[string]metric

// set records a measurement. One that could not be taken — a ratio over
// nothing, the median of no samples — stays absent rather than becoming a
// number nobody measured.
func (m metricSet) set(name string, value float64, unit string, samples int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	m[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// runResult is one run of one workload, untraced (end-to-end metrics) or
// traced (per-layer metrics).
type runResult struct {
	Workload  string    `json:"workload"`
	Traced    bool      `json:"traced"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// memCounters is the part of runtime.MemStats a window is charged with.
type memCounters struct {
	bytes, mallocs, pauseNS uint64
	cycles                  uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{bytes: ms.TotalAlloc, mallocs: ms.Mallocs, pauseNS: ms.PauseTotalNs, cycles: ms.NumGC}
}

func (a memCounters) since(b memCounters) memCounters {
	return memCounters{bytes: a.bytes - b.bytes, mallocs: a.mallocs - b.mallocs,
		pauseNS: a.pauseNS - b.pauseNS, cycles: a.cycles - b.cycles}
}

// heapSampleEvery is the period of the heap sampler: short against a cold
// document's ~100 ms, so that the high-water mark is seen and not guessed.
const heapSampleEvery = 10 * time.Millisecond

// peakShare is the share of the heap samples the reported peak lies above.
// The single highest sample depends on where one collection happened to
// end and spreads two to three times as wide from run to run.
const peakShare = 0.99

// heapInUse is the bytes in heap spans holding at least one object — what
// runtime.MemStats calls HeapInuse, read without stopping the world.
func heapInUse(buf []metrics.Sample) float64 {
	metrics.Read(buf)
	return float64(buf[0].Value.Uint64() + buf[1].Value.Uint64())
}

// watchHeap samples heap-in-use until stop is closed and returns the
// samples in ascending order. expect is how many it should make room for,
// so that it allocates nothing inside the window it watches.
func watchHeap(stop <-chan struct{}, expect int) <-chan []float64 {
	out := make(chan []float64, 1) // holds the single result
	go func() {
		buf := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		samples := make([]float64, 0, expect)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				samples = append(samples, heapInUse(buf))
			case <-stop:
				samples = append(samples, heapInUse(buf))
				sort.Float64s(samples)
				out <- samples
				return
			}
		}
	}()
	return out
}

// window is what the timed window of an untraced run observed.
type window struct {
	samples []sample
	wall    time.Duration
	mem     memCounters
	heap    []float64 // heap-in-use samples, ascending
}

// measure drives every caller closed-loop for d: each starts its next
// document only when the previous one is complete, and a document begun
// inside the window is finished and counted.
func measure(cs []caller, d time.Duration) window {
	runtime.GC() // every run starts from a collected heap
	stop := make(chan struct{})
	heap := watchHeap(stop, int(2*d/heapSampleEvery))
	per := make([][]sample, len(cs))
	before := readMem()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[i] = loop(c, func(int) bool { return !time.Now().Before(deadline) })
		}()
	}
	wg.Wait()
	w := window{wall: time.Since(start), mem: readMem().since(before)}
	close(stop)
	w.heap = <-heap
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mb = 1e6

// docTimes splits the good documents' timings into ascending total and
// first-byte series in milliseconds, and sums their bytes.
func docTimes(samples []sample) (total, first []float64, bytes int, failed int) {
	for _, s := range samples {
		if !s.ok {
			failed++
			continue
		}
		total = append(total, ms(s.total))
		first = append(first, ms(s.first))
		bytes += s.bytes
	}
	sort.Float64s(total)
	sort.Float64s(first)
	return total, first, bytes, failed
}

// endToEnd turns a window and the set-up times into the end-to-end
// metrics. Only golden-verified documents count towards latency and
// throughput; every attempted one counts towards allocation, because the
// process paid for it. Latencies are absolute: a ratio of two of them
// would call a gain in its denominator a regression.
func endToEnd(w window, setups []float64) (metricSet, int, int) {
	total, first, bytes, failed := docTimes(w.samples)
	n, good := len(w.samples), len(total)
	m := metricSet{}
	m.set("setup_s", median(setups), "s", len(setups))
	m.set("doc_p50_ms", percentile(total, 0.5), "ms", good)
	m.set("doc_p90_ms", percentile(total, 0.9), "ms", good)
	m.set("first_byte_p50_ms", percentile(first, 0.5), "ms", good)
	m.set("xml_mb_per_s", float64(bytes)/mb/w.wall.Seconds(), "MB/s", good)
	m.set("alloc_mb_per_doc", float64(w.mem.bytes)/mb/float64(max(n, 1)), "MB", n)
	m.set("allocs_per_doc", float64(w.mem.mallocs)/float64(max(n, 1)), "count", n)
	m.set("peak_heap_mb", percentile(w.heap, peakShare)/mb, "MB", len(w.heap))
	return m, n, failed
}

// runWorkload runs one workload once: it sets up setupReps times, keeps
// the last system, and either measures the timed window (end-to-end
// metrics) or hands the system to its staged traced run (per-layer
// metrics, spans written to traceDir).
func runWorkload(w workload, cfg config, traced bool, traceDir string) (*runResult, error) {
	var sys system
	var setups []float64
	for i := 0; i < cfg.setupReps(); i++ {
		if sys != nil {
			sys.close()
		}
		start := time.Now()
		var err error
		if sys, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sys.close()

	res := &runResult{Workload: w.name, Traced: traced}
	if !traced {
		res.Metrics, res.Attempted, res.Failed = endToEnd(measure(sys.callers(), cfg.window()), setups)
		if good := res.Attempted - res.Failed; !cfg.quick && !supported(good, 0.9) {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d documents leave %d beyond p90, fewer than %d: read doc_p90_ms as the tail of few samples\n",
				w.name, good, tailSamples(good, 0.9), tailMin)
		}
		return res, nil
	}
	tr := newTrace()
	tres, err := sys.traced(tr, cfg.window())
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	res.Metrics, res.Attempted, res.Failed = tres.metrics, tres.attempted, tres.failed
	if traceDir != "" {
		if err := tr.write(filepath.Join(traceDir, "trace-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}
