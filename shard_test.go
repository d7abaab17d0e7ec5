package silkroute

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"silkroute/internal/rxl"
)

// shardDBs partitions db into n shards by Supplier key hash.
func shardDBs(t testing.TB, db *DB, n int) []*DB {
	t.Helper()
	out := make([]*DB, n)
	for i := 0; i < n; i++ {
		shard, err := db.Partition("Supplier", i, n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = shard
	}
	return out
}

// TestShardEquivalenceMatrix is the headline scale-out property end to
// end: for 1, 2, and 4 Supplier-hash partitions of the same database,
// across the chaos seed matrix and the strategy family, the
// scatter-gather-merged document is byte-identical to the unsharded local
// run — including when one shard replica is hard-killed mid-stream (every
// stream and every continuation it serves dies), forcing that shard's
// stream to heal itself on another replica underneath the merge. Extra seeds via
// CHAOS_SEEDS="4 5 6".
func TestShardEquivalenceMatrix(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	local, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []Strategy{OuterUnion, FullyPartitioned, Greedy}
	want := make(map[Strategy]string)
	for _, s := range strategies {
		var buf bytes.Buffer
		if _, err := local.Materialize(ctx, &buf, s); err != nil {
			t.Fatal(err)
		}
		want[s] = buf.String()
	}

	for _, n := range []int{1, 2, 4} {
		shards := shardDBs(t, db, n)
		for _, seed := range chaosSeeds() {
			// Every shard is a 2-replica group. Shard 0's first replica is
			// hard-dead (a huge kill budget cuts every stream and every
			// continuation within 10 rows), so streams landing there can
			// only finish by failing over inside shard 0 — underneath the
			// merge. The other shards' first replicas cut streams at
			// seeded pseudo-random rows, exercising plain resume per
			// shard; every second replica runs clean.
			parts := make([]Topology, n)
			for i, sdb := range shards {
				spec := "seed=" + seed + ",cutrowmax=10"
				if i == 0 {
					spec += ",kills=1000000"
				}
				faulty := startChaosServer(t, sdb, spec)
				clean := startChaosServer(t, sdb, "")
				parts[i] = Replicas(faulty, clean)
			}
			opts := []Option{
				WithResume(2),
				WithSource(tpchSourceDescription(t)),
			}
			remote, err := Dial(Sharded(parts...), opts...)
			if err != nil {
				t.Fatal(err)
			}
			rv, err := ParseRemoteView(remote, nil, rxl.FragmentSource, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range strategies {
				var got bytes.Buffer
				if _, err := rv.Materialize(ctx, &got, s); err != nil {
					t.Fatalf("shards=%d seed=%s %s: %v", n, seed, s, err)
				}
				if got.String() != want[s] {
					t.Errorf("shards=%d seed=%s %s: document differs from unsharded run (lengths %d vs %d)",
						n, seed, s, got.Len(), len(want[s]))
				}
			}
			remote.Close()
		}
	}
}

// TestShardEquivalenceFaultFree is the merge correctness half without
// chaos: plain single-client shards, no resume configured, every
// strategy. This is the path where the plan layer must ship sort keys
// with the streams even though resume is off.
func TestShardEquivalenceFaultFree(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	local, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		parts := make([]Topology, n)
		for i, sdb := range shardDBs(t, db, n) {
			parts[i] = Single(startChaosServer(t, sdb, ""))
		}
		remote, err := Dial(Sharded(parts...), WithSource(tpchSourceDescription(t)))
		if err != nil {
			t.Fatal(err)
		}
		rv, err := ParseRemoteView(remote, nil, rxl.FragmentSource)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range Strategies() {
			var want, got bytes.Buffer
			if _, err := local.Materialize(ctx, &want, s); err != nil {
				t.Fatal(err)
			}
			if _, err := rv.Materialize(ctx, &got, s); err != nil {
				t.Fatalf("shards=%d %s: %v", n, s, err)
			}
			if got.String() != want.String() {
				t.Errorf("shards=%d %s: document differs from unsharded run", n, s)
			}
		}
		remote.Close()
	}
}

// TestShardStreamStats checks the per-stream shard breakdown: every
// stream of a 2-shard run reports two ShardStat entries whose row counts
// sum to the stream total.
func TestShardStreamStats(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	parts := make([]Topology, 2)
	for i, sdb := range shardDBs(t, db, 2) {
		parts[i] = Single(startChaosServer(t, sdb, ""))
	}
	remote, err := Dial(Sharded(parts...), WithSource(tpchSourceDescription(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	rv, err := ParseRemoteView(remote, nil, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rv.Materialize(ctx, io.Discard, OuterUnion)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range rep.PerStream {
		if len(st.Shards) != 2 {
			t.Fatalf("stream %d: %d shard stats, want 2", i, len(st.Shards))
		}
		var rows int64
		for j, ss := range st.Shards {
			if ss.Shard != j {
				t.Errorf("stream %d: shard stat %d has index %d", i, j, ss.Shard)
			}
			rows += ss.Rows
		}
		if rows != st.Rows {
			t.Errorf("stream %d: shard rows sum %d != stream rows %d", i, rows, st.Rows)
		}
	}
}

// TestPartition checks the horizontal partitioning scheme itself: the
// partitioned relation splits without loss or overlap, every other
// relation is replicated whole, and bad arguments are rejected.
// TestPartitionSplitsSupplierFiveFive pins the shard hash over the
// column-major tables: at scale 0.001, two shards of Supplier hold 5 rows
// each, and the shards' union is the whole relation, row for row.
func TestPartitionSplitsSupplierFiveFive(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	all := db.eng.MustTable("Supplier")
	seen := make(map[string]bool)
	for i := 0; i < 2; i++ {
		shard, err := db.Partition("Supplier", i, 2)
		if err != nil {
			t.Fatal(err)
		}
		sup := shard.eng.MustTable("Supplier")
		if sup.Len() != 5 {
			t.Errorf("shard %d holds %d suppliers, want 5", i, sup.Len())
		}
		for r := 0; r < sup.Len(); r++ {
			seen[fmt.Sprint(sup.Row(r))] = true
		}
	}
	for r := 0; r < all.Len(); r++ {
		if !seen[fmt.Sprint(all.Row(r))] {
			t.Errorf("supplier %v is on no shard", all.Row(r))
		}
	}
}

func TestPartition(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	total, err := db.RowCount("Supplier")
	if err != nil {
		t.Fatal(err)
	}
	orders, err := db.RowCount("Orders")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	sum := 0
	for i := 0; i < n; i++ {
		shard, err := db.Partition("Supplier", i, n)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := shard.RowCount("Supplier")
		if err != nil {
			t.Fatal(err)
		}
		sum += sc
		if oc, _ := shard.RowCount("Orders"); oc != orders {
			t.Errorf("shard %d: Orders replicated %d rows, want %d", i, oc, orders)
		}
	}
	if sum != total {
		t.Errorf("Supplier partition row sum %d, want %d", sum, total)
	}
	if _, err := db.Partition("Supplier", 3, 3); err == nil {
		t.Error("Partition(3, 3) out of range succeeded")
	}
	if _, err := db.Partition("Supplier", -1, 3); err == nil {
		t.Error("Partition(-1, 3) succeeded")
	}
	if _, err := db.Partition("Nope", 0, 2); err == nil {
		t.Error("Partition of unknown relation succeeded")
	}
}

// topologyGood are well-formed topology strings, their shapes and their
// canonical String forms.
var topologyGood = []struct {
	in       string
	shards   int
	replicas []int
	str      string
}{
	{"a:7070", 1, []int{1}, "a:7070"},
	{"a:7070,b:7070", 1, []int{2}, "a:7070,b:7070"},
	{"s0=a;s1=b", 2, []int{1, 1}, "s0=a;s1=b"},
	{"s0=a,b;s1=c,d", 2, []int{2, 2}, "s0=a,b;s1=c,d"},
	{"a,b;c", 2, []int{2, 1}, "s0=a,b;s1=c"},
	{" a , b ; c ", 2, []int{2, 1}, "s0=a,b;s1=c"},
}

// topologyBad are malformed topology strings, the offset each error
// carries and a fragment of its message.
var topologyBad = []struct {
	in     string
	offset int
	msg    string
}{
	{"", 0, "empty topology"},
	{"   ", 0, "empty topology"},
	{"a;;b", 2, "empty replica group"},
	{"a,,b", 2, "empty address"},
	{"s1=a;s0=b", 0, "out of order"},
	{"s0=a;s0=b", 5, "out of order"},
	{"x0=a", 0, "bad shard label"},
	{"s0=x=y", 4, `contains "="`},
	{"a;s1=b,c=d", 8, `contains "="`},
}

// TestParseTopology drives the flag syntax through its shapes, the
// canonical String round-trip, and the positioned errors.
func TestParseTopology(t *testing.T) {
	for _, tc := range topologyGood {
		topo, err := ParseTopology(tc.in)
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", tc.in, err)
			continue
		}
		if topo.Shards() != tc.shards {
			t.Errorf("ParseTopology(%q): %d shards, want %d", tc.in, topo.Shards(), tc.shards)
		}
		for i, want := range tc.replicas {
			if got := topo.Replicas(i); got != want {
				t.Errorf("ParseTopology(%q): shard %d has %d replicas, want %d", tc.in, i, got, want)
			}
		}
		if topo.String() != tc.str {
			t.Errorf("ParseTopology(%q).String() = %q, want %q", tc.in, topo.String(), tc.str)
		}
		// The canonical form must round-trip to itself.
		again, err := ParseTopology(topo.String())
		if err != nil {
			t.Errorf("round-trip of %q: %v", topo.String(), err)
		} else if again.String() != topo.String() {
			t.Errorf("round-trip of %q = %q", topo.String(), again.String())
		}
	}

	for _, tc := range topologyBad {
		_, err := ParseTopology(tc.in)
		if err == nil {
			t.Errorf("ParseTopology(%q) succeeded", tc.in)
			continue
		}
		var terr *TopologyError
		if !errors.As(err, &terr) {
			t.Errorf("ParseTopology(%q) error type %T, want *TopologyError", tc.in, err)
			continue
		}
		if terr.Offset != tc.offset {
			t.Errorf("ParseTopology(%q) offset %d, want %d", tc.in, terr.Offset, tc.offset)
		}
		if !strings.Contains(terr.Msg, tc.msg) {
			t.Errorf("ParseTopology(%q) msg %q, want it to contain %q", tc.in, terr.Msg, tc.msg)
		}
	}
}

// FuzzParseTopology: no input panics, every error is a *TopologyError
// whose offset lies within the input, and every accepted topology
// round-trips through String to the same replica groups.
func FuzzParseTopology(f *testing.F) {
	for _, tc := range topologyGood {
		f.Add(tc.in)
	}
	for _, tc := range topologyBad {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		topo, err := ParseTopology(s)
		if err != nil {
			var terr *TopologyError
			if !errors.As(err, &terr) {
				t.Fatalf("ParseTopology(%q) error type %T, want *TopologyError", s, err)
			}
			if terr.Offset < 0 || terr.Offset > len(s) {
				t.Fatalf("ParseTopology(%q) offset %d outside [0, %d]", s, terr.Offset, len(s))
			}
			return
		}
		again, err := ParseTopology(topo.String())
		if err != nil {
			t.Fatalf("ParseTopology(%q).String() = %q does not parse: %v", s, topo.String(), err)
		}
		if !reflect.DeepEqual(again.groups, topo.groups) {
			t.Fatalf("ParseTopology(%q) groups %v, round-trip through %q gives %v", s, topo.groups, topo.String(), again.groups)
		}
	})
}

// TestTopologyConstructors checks the programmatic shapes compose the way
// the flag syntax reads.
func TestTopologyConstructors(t *testing.T) {
	if s := Single("a").String(); s != "a" {
		t.Errorf("Single = %q", s)
	}
	if s := Replicas("a", "b").String(); s != "a,b" {
		t.Errorf("Replicas = %q", s)
	}
	grid := Sharded(Replicas("a", "b"), Single("c"))
	if s := grid.String(); s != "s0=a,b;s1=c" {
		t.Errorf("Sharded = %q", s)
	}
	if grid.Shards() != 2 || grid.Replicas(0) != 2 || grid.Replicas(1) != 1 {
		t.Errorf("Sharded shape = %d shards, replicas %d/%d", grid.Shards(), grid.Replicas(0), grid.Replicas(1))
	}
	// Nested sharding flattens into more shards.
	flat := Sharded(grid, Single("d"))
	if flat.Shards() != 3 {
		t.Errorf("nested Sharded has %d shards, want 3", flat.Shards())
	}
	if !(Topology{}).IsZero() || Single("a").IsZero() {
		t.Error("IsZero misreports")
	}
}
