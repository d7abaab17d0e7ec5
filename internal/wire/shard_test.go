package wire

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"silkroute/internal/engine"
	"silkroute/internal/schema"
	"silkroute/internal/value"
)

// bigShardDBs splits bigDB's contents across `shards` databases, placing
// copy d of key k on shard place(k, d). Each shard holds a horizontal
// slice of the same Big relation, each slice sorted by the same key —
// the contract the scatter-gather merge assumes.
func bigShardDBs(t *testing.T, n, dup, shards int, place func(k, d int) int) []*engine.Database {
	t.Helper()
	dbs := make([]*engine.Database, shards)
	for i := range dbs {
		s := schema.New()
		s.MustAddRelation("Big", []string{"k"},
			schema.Column{Name: "k", Type: value.KindInt},
			schema.Column{Name: "v", Type: value.KindString})
		dbs[i] = engine.NewDatabase(s)
	}
	for k := 1; k <= n; k++ {
		for d := 0; d < dup; d++ {
			dbs[place(k, d)].MustTable("Big").MustInsert(
				value.Int(int64(k)), value.String(fmt.Sprintf("row-%04d", k)))
		}
	}
	return dbs
}

func inProcessShardSet(t *testing.T, dbs []*engine.Database, opts ...ShardOption) *ShardSet {
	t.Helper()
	backends := make([]Backend, len(dbs))
	for i, db := range dbs {
		backends[i] = InProcess(db)
	}
	s := NewShardSet(backends, opts...)
	t.Cleanup(func() { s.Close() })
	return s
}

// TestShardMergeViewRowsStayUntilNextCall: the merge advances a shard on
// the call after the one that returned its row, so a row NextView returned
// stays intact until the next call even when that shard's next frame, or
// the other shard's, is decoded into the same slab later.
func TestShardMergeViewRowsStayUntilNextCall(t *testing.T) {
	const n = 4*batchMaxRows + 17 // several frames per shard
	dbs := bigShardDBs(t, n, 1, 2, func(k, d int) int { return k % 2 })
	rows, err := inProcessShardSet(t, dbs).QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	drainViews(t, rows, n)
	if rows.RowCount != n {
		t.Errorf("RowCount = %d, want %d", rows.RowCount, n)
	}
}

// TestShardMergeGlobalOrder is the core splice property: rows hashed
// across three shards come back in exact global key order, with the
// per-shard breakdown accounting for every row.
func TestShardMergeGlobalOrder(t *testing.T) {
	dbs := bigShardDBs(t, 300, 1, 3, func(k, d int) int { return k % 3 })
	set := inProcessShardSet(t, dbs)

	rows, err := set.QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	checkBigRows(t, got, 300, 1)
	if rows.RowCount != 300 {
		t.Errorf("RowCount = %d, want 300", rows.RowCount)
	}

	stats := rows.ShardStats()
	if len(stats) != 3 {
		t.Fatalf("ShardStats has %d entries, want 3", len(stats))
	}
	var sum int64
	for i, st := range stats {
		if st.Shard != i {
			t.Errorf("stats[%d].Shard = %d", i, st.Shard)
		}
		if st.Rows == 0 {
			t.Errorf("shard %d reported zero rows", i)
		}
		sum += st.Rows
	}
	if sum != 300 {
		t.Errorf("per-shard rows sum to %d, want 300", sum)
	}
}

// TestShardMergeTieInvariance is the tie property the merge's correctness
// rests on: full-key ties are byte-identical rows, so when copies of the
// same key live on *different* shards, the merged stream must be
// identical no matter which order the shards are wired in. Every
// permutation of three shards must produce the same row sequence.
func TestShardMergeTieInvariance(t *testing.T) {
	// Copy d of key k lands on shard (k+d) % 3: every key's three
	// identical copies are split across all three shards, so every
	// key is a cross-shard tie group.
	build := func() []*engine.Database {
		return bigShardDBs(t, 60, 3, 3, func(k, d int) int { return (k + d) % 3 })
	}
	render := func(got [][]value.Value) string {
		var b strings.Builder
		for _, row := range got {
			fmt.Fprintf(&b, "%d|%s\n", row[0].AsInt(), row[1].AsString())
		}
		return b.String()
	}

	var want string
	for _, perm := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		dbs := build()
		set := inProcessShardSet(t, []*engine.Database{dbs[perm[0]], dbs[perm[1]], dbs[perm[2]]})
		rows, err := set.QueryResumable(ctx, bigSQL, bigSpec())
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, rows)
		checkBigRows(t, got, 60, 3)
		if doc := render(got); want == "" {
			want = doc
		} else if doc != want {
			t.Errorf("permutation %v produced a different row sequence", perm)
		}
	}
}

// TestShardMergeNullKeys pins down NULL sort-key components: NULL sorts
// before every non-NULL value (value.Compare), and NULL-vs-NULL is a tie
// broken by shard index, so NULL-keyed rows from every shard surface
// first, in shard order.
func TestShardMergeNullKeys(t *testing.T) {
	dbs := bigShardDBs(t, 0, 0, 2, nil)
	dbs[0].MustTable("Big").MustInsert(value.Null, value.String("null-a"))
	dbs[0].MustTable("Big").MustInsert(value.Int(2), value.String("two"))
	dbs[1].MustTable("Big").MustInsert(value.Null, value.String("null-b"))
	dbs[1].MustTable("Big").MustInsert(value.Int(1), value.String("one"))
	set := inProcessShardSet(t, dbs)

	spec := &ResumeSpec{KeyCols: []int{0}, Rewrite: func([]value.Value) (string, error) {
		return bigSQL, nil
	}}
	rows, err := set.QueryResumable(ctx, bigSQL, spec)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	var names []string
	for _, row := range got {
		names = append(names, row[1].AsString())
	}
	want := "null-a null-b one two"
	if g := strings.Join(names, " "); g != want {
		t.Errorf("merged order %q, want %q", g, want)
	}
}

// TestShardFailureWrapsShardName: when one shard's stream dies beyond
// recovery, the merged error names the shard and stays errors.Is
// ErrStreamLost.
func TestShardFailureWrapsShardName(t *testing.T) {
	healthy := InProcess(bigDB(t, 100, 1))
	sick := faultClient(t, bigDB(t, 100, 1), killEachTextOnceAt(10))
	set := NewShardSet([]Backend{healthy, sick}, WithShardNames([]string{"alpha", "beta"}))
	t.Cleanup(func() { set.Close() })

	rows, err := set.QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, err = drainToError(rows)
	if !errors.Is(err, ErrStreamLost) {
		t.Fatalf("err = %v, want ErrStreamLost", err)
	}
	if !strings.Contains(err.Error(), "beta") {
		t.Errorf("err = %v, want it to name shard %q", err, "beta")
	}
	// A dead merge is sticky and Close is idempotent.
	if _, nerr := rows.Next(); nerr == nil {
		t.Error("Next after merge failure succeeded")
	}
	if cerr := rows.Close(); cerr != nil {
		t.Errorf("Close after failure: %v", cerr)
	}
}

// TestShardResumeUnderMerge: each shard's own resume machinery heals cuts
// underneath the merge — the merged stream never notices, and the
// per-shard recovery counters fold into the merged Rows.
func TestShardResumeUnderMerge(t *testing.T) {
	dbs := bigShardDBs(t, 200, 1, 2, func(k, d int) int { return k % 2 })
	backends := make([]Backend, len(dbs))
	for i, db := range dbs {
		backends[i] = faultClient(t, db, killEachTextOnceAt(30),
			WithResume(Resume{MaxResumes: 3}))
	}
	set := NewShardSet(backends)
	t.Cleanup(func() { set.Close() })

	rows, err := set.QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	checkBigRows(t, got, 200, 1)
	// Each shard serves 100 rows with every query text killed once at row
	// 30: the original and two continuations die, the third continuation
	// finishes — three chained resumes per shard, six folded into the
	// merged stream.
	if rows.Resumes != 6 {
		t.Errorf("merged Resumes = %d, want 6 (three per shard)", rows.Resumes)
	}
	for i, st := range rows.ShardStats() {
		if st.Resumes != 3 {
			t.Errorf("shard %d Resumes = %d, want 3", i, st.Resumes)
		}
	}
}

// TestShardSingleDelegates: a 1-shard set adds no merge layer at all —
// the child's Rows comes back unwrapped.
func TestShardSingleDelegates(t *testing.T) {
	set := NewShardSet([]Backend{InProcess(bigDB(t, 50, 1))})
	t.Cleanup(func() { set.Close() })
	rows, err := set.QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rows.merge != nil {
		t.Error("single-shard set wrapped the stream in a merge")
	}
	if rows.ShardStats() != nil {
		t.Error("single-shard stream reported shard stats")
	}
	checkBigRows(t, drain(t, rows), 50, 1)
}

// TestShardConcatWithoutKeys: with no resume spec there is no sort key,
// so Query concatenates partials in shard order. Shard 0 deliberately holds the *higher* keys to prove the
// set concatenates rather than merges.
func TestShardConcatWithoutKeys(t *testing.T) {
	dbs := bigShardDBs(t, 20, 1, 2, func(k, d int) int {
		if k > 10 {
			return 0
		}
		return 1
	})
	set := inProcessShardSet(t, dbs)
	rows, err := set.QueryResumable(ctx, bigSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	if len(got) != 20 {
		t.Fatalf("got %d rows, want 20", len(got))
	}
	if got[0][0].AsInt() != 11 || got[10][0].AsInt() != 1 {
		t.Errorf("concatenation order wrong: first=%d, eleventh=%d (want 11 then 1)",
			got[0][0].AsInt(), got[10][0].AsInt())
	}
}

// TestShardEstimateCombines: scatter estimates add costs and
// cardinalities across partitions.
func TestShardEstimateCombines(t *testing.T) {
	dbs := bigShardDBs(t, 90, 1, 3, func(k, d int) int { return k % 3 })
	set := inProcessShardSet(t, dbs)

	var wantCost, wantRows float64
	for _, db := range dbs {
		e, err := InProcess(db).Estimate(ctx, bigSQL)
		if err != nil {
			t.Fatal(err)
		}
		wantCost += e.Cost
		wantRows += e.Rows
	}
	got, err := set.Estimate(ctx, bigSQL)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != wantCost || got.Rows != wantRows {
		t.Errorf("combined estimate cost=%g rows=%g, want cost=%g rows=%g",
			got.Cost, got.Rows, wantCost, wantRows)
	}
	if got.Width <= 0 {
		t.Errorf("combined width = %g, want > 0", got.Width)
	}
}

// TestShardStatsEpochSums: the combined epoch is the shard sum, so any
// single shard's write moves it and plan-family cache stamps stay
// conservative.
func TestShardStatsEpochSums(t *testing.T) {
	dbs := bigShardDBs(t, 30, 1, 2, func(k, d int) int { return k % 2 })
	set := inProcessShardSet(t, dbs)

	before, err := set.StatsEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dbs[1].MustTable("Big").MustInsert(value.Int(999), value.String("row-0999"))
	after, err := set.StatsEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("epoch did not advance on a shard write: before=%d after=%d", before, after)
	}
}
