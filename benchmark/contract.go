package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the base median by which the metric may worsen before that
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is BENCHMARK.json: the one place the metric names, units,
// directions and bounds are declared. The harness reads it for the run
// length, to print exactly the declared metrics, and for -compare.
type contract struct {
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
}

// loadContract reads BENCHMARK.json from the working directory — the root
// of the checkout under `go run ./benchmark` — or from its parent, which
// is where `go test` runs this package.
func loadContract() (*contract, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		blob, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var c contract
		if err := json.Unmarshal(blob, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &c, nil
	}
	return nil, firstErr
}
