package silkroute

import (
	"io"
	"runtime"
	"testing"

	"silkroute/internal/rxl"
)

// TestAllocsPerDocument holds the allocation count and the allocated bytes
// of one document on the paths the benchmark's workloads measure. Each
// ceiling is the figure at the time it was set plus its tolerance: a rise
// past it fails, and a fall of more than 5 % is logged so the change that
// earned it can lower the figure.
func TestAllocsPerDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts in -short mode")
	}
	db := OpenTPCH(0.001, 42)
	cases := []struct {
		name string
		// count and mb are the allocations and the MB allocated per
		// document when the ceilings were set; tol is the fraction a run
		// may exceed either by.
		count, mb, tol float64
		setup          func(t *testing.T) func() error
	}{
		{
			// export-cold: compile and materialise Query 1 with the greedy
			// plan in process, no caches.
			name: "parse-and-greedy", count: 2_518, mb: 1.86, tol: 0.03,
			setup: func(t *testing.T) func() error {
				return func() error {
					v, err := ParseView(db, rxl.Query1Source)
					if err != nil {
						return err
					}
					_, err = v.Materialize(ctx, io.Discard, Greedy)
					return err
				}
			},
		},
		{
			// export-sharded: the fully partitioned plan over two wire
			// shards on loopback. The servers and their pooled connections
			// run in this process, so their allocations count too and
			// scheduling can move the total a little: 5 % tolerance.
			name: "sharded-partitioned", count: 4_880, mb: 5.75, tol: 0.05,
			setup: func(t *testing.T) func() error {
				var parts []Topology
				for i := 0; i < 2; i++ {
					part, err := db.Partition("Supplier", i, 2)
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, Single(startChaosServer(t, part, "")))
				}
				remote := mustDial(t, Sharded(parts...), WithSource(TPCHSourceDescription()))
				t.Cleanup(func() { remote.Close() })
				return func() error {
					v, err := ParseRemoteView(remote, nil, rxl.Query1Source)
					if err != nil {
						return err
					}
					_, err = v.Materialize(ctx, io.Discard, FullyPartitioned)
					return err
				}
			},
		},
		{
			// serve-hot: a fragment-cache hit through a registry handle.
			name: "fragment-hit", count: 2, mb: 0.000208, tol: 0.03,
			setup: func(t *testing.T) func() error {
				h, err := NewHandle("q1", db, rxl.Query1Source, WithPlanCache(), WithFragmentCache(0))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := h.Materialize(ctx, io.Discard); err != nil {
					t.Fatal(err)
				}
				return func() error {
					rep, err := h.Materialize(ctx, io.Discard)
					if err == nil && !rep.FragmentCached {
						t.Fatal("expected a fragment-cache hit")
					}
					return err
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := c.setup(t)
			if err := run(); err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun makes one warm-up run and then runs, all of them
			// warm; the bytes are their TotalAlloc delta.
			const runs = 10
			var err error
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got := testing.AllocsPerRun(runs, func() {
				if e := run(); e != nil {
					err = e
				}
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			mb := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / 1e6
			check(t, "allocations", got, c.count, c.tol)
			check(t, "MB allocated", mb, c.mb, c.tol)
		})
	}
}

// check logs got, a figure per document, beside want; it fails when got
// exceeds want by more than tol, and logs again when it is more than 5 %
// under.
func check(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	ceiling := want * (1 + tol)
	t.Logf("%.4g %s per document, figure %.4g", got, what, want)
	switch {
	case got > ceiling:
		t.Errorf("%.4g %s per document, ceiling %.4g (%.4g + %.0f %%)", got, what, ceiling, want, 100*tol)
	case got < 0.95*want:
		t.Logf("%.4g %s per document, more than 5 %% under %.4g: lower the figure", got, what, want)
	}
}
