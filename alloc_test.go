package silkroute

import (
	"io"
	"testing"

	"silkroute/internal/rxl"
)

// TestAllocsPerDocument holds the allocation count of one document on the
// paths the benchmark's workloads measure. Each ceiling is the count at the
// time it was set plus its tolerance: a rise past it fails, and a fall of
// more than 5 % is logged so the change that earned it can lower the count.
func TestAllocsPerDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts in -short mode")
	}
	db := OpenTPCH(0.001, 42)
	cases := []struct {
		name string
		// count is the allocations per document when the ceiling was set;
		// tol is the fraction a run may exceed it by.
		count, tol float64
		setup      func(t *testing.T) func() error
	}{
		{
			// export-cold: compile and materialise Query 1 with the greedy
			// plan in process, no caches.
			name: "parse-and-greedy", count: 10_110, tol: 0.03,
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
			name: "sharded-partitioned", count: 47_838, tol: 0.05,
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
			name: "fragment-hit", count: 278, tol: 0.03,
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
			var err error
			got := testing.AllocsPerRun(10, func() {
				if e := run(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			ceiling := c.count * (1 + c.tol)
			switch {
			case got > ceiling:
				t.Errorf("%.0f allocations per document, ceiling %.0f (%.0f + %.0f %%)", got, ceiling, c.count, 100*c.tol)
			case got < 0.95*c.count:
				t.Logf("%.0f allocations per document, more than 5 %% under %.0f: lower the count", got, c.count)
			}
		})
	}
}
