package sqlexec

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"silkroute/internal/schema"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlparse"
	"silkroute/internal/table"
	"silkroute/internal/value"
)

// benchCatalog builds a two-table catalog shaped like the paper's
// order/lineitem fan-out: nOrders build-side rows, fanout matching probe
// rows each, joined on a composite (int, string-ish) key so the hash keys
// exercise every value kind the TPC-H queries use.
func benchCatalog(nOrders, fanout int) Catalog {
	s := schema.New()
	ord := s.MustAddRelation("Ord", []string{"okey"},
		schema.Column{Name: "okey", Type: value.KindInt},
		schema.Column{Name: "clerk", Type: value.KindString},
		schema.Column{Name: "total", Type: value.KindFloat})
	li := s.MustAddRelation("Line", []string{"okey", "lnum"},
		schema.Column{Name: "okey", Type: value.KindInt},
		schema.Column{Name: "lnum", Type: value.KindInt},
		schema.Column{Name: "qty", Type: value.KindInt})

	to := table.New(ord)
	for i := 0; i < nOrders; i++ {
		to.MustInsert(value.Int(int64(i)), value.String(fmt.Sprintf("clerk-%03d", i%97)), value.Float(float64(i)*1.5))
	}
	tl := table.New(li)
	for i := 0; i < nOrders; i++ {
		for j := 0; j < fanout; j++ {
			tl.MustInsert(value.Int(int64(i)), value.Int(int64(j)), value.Int(int64(i*j%50)))
		}
	}
	return testCatalog{"ord": to, "line": tl}
}

// BenchmarkHashJoinAllocs measures per-operation allocations of the hash
// join path; the allocation-lean composite keys (scratch buffer +
// map[string(buf)] probes) must keep allocs/op well below the one-string-
// per-probe-row baseline.
func BenchmarkHashJoinAllocs(b *testing.B) {
	cat := benchCatalog(1000, 4)
	q, err := sqlparse.Parse(
		"select o.okey, o.clerk, l.lnum, l.qty from Ord o, Line l where o.okey = l.okey order by o.okey, l.lnum")
	if err != nil {
		b.Fatal(err)
	}
	bench := func(b *testing.B, q sqlast.Query) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := RunContext(context.Background(), cat, q)
			if err != nil {
				b.Fatal(err)
			}
			if len(r.Rows) != 4000 {
				b.Fatalf("join produced %d rows", len(r.Rows))
			}
		}
	}
	bench(b, q)
}

// BenchmarkHashJoinDisjunctiveAllocs covers the multi-disjunct ON path the
// unified plans generate ("(cond and …) or (cond and …)"), which merges the
// disjuncts' matches per left row and deduplicates them in place.
func BenchmarkHashJoinDisjunctiveAllocs(b *testing.B) {
	cat := benchCatalog(500, 4)
	q, err := sqlparse.Parse(
		"select o.okey, l.lnum from Ord o left outer join Line l" +
			" on (o.okey = l.okey and l.lnum = 0) or (o.okey = l.okey and l.qty = 7)" +
			" order by o.okey, l.lnum")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), cat, q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunAllocsIndependentOfRows pins that the executor allocates per
// operator, not per row: a three-way join with ORDER BY allocates nearly
// the same at 250 and at 1 000 orders (1 000 and 4 000 order lines). The
// slack is the hash builds' maps, which allocate one table per ~900 keys:
// 24 more at the larger size. A per-row allocation would add thousands.
func TestRunAllocsIndependentOfRows(t *testing.T) {
	q, err := sqlparse.Parse("select o.okey, o.clerk, l.lnum, l2.qty from Ord o, Line l, Line l2" +
		" where o.okey = l.okey and l.okey = l2.okey and l.lnum = l2.lnum and o.total >= 0" +
		" order by o.clerk, o.okey, l.lnum")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(nOrders int) float64 {
		cat := benchCatalog(nOrders, 4)
		return testing.AllocsPerRun(5, func() {
			r, err := RunContext(context.Background(), cat, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) != nOrders*4 {
				t.Fatalf("join produced %d rows, want %d", len(r.Rows), nOrders*4)
			}
		})
	}
	small, large := allocs(250), allocs(1000)
	t.Logf("allocations per query: %v at 250 orders, %v at 1000", small, large)
	if large-small > 32 {
		t.Errorf("allocations grow with rows: %v at 250 orders, %v at 1000", small, large)
	}
}

// TestJoinBytesIndependentOfWidth pins that joins carry row IDs, not
// values: the same three-way join, once selecting one column and once all
// nine of its inputs' columns, allocates the same bytes but for the wider
// projection's values (rows × 8 extra columns × one value), the wider
// run's ID columns for the two inputs it keeps that the narrow one drops
// (rows × 2 × 4 B per join), and 16 KiB of per-column bookkeeping. A join
// that copied its inputs' values would add rows × columns × one value per
// join on top.
func TestJoinBytesIndependentOfWidth(t *testing.T) {
	const nOrders, fanout = 1000, 4
	const rows = nOrders * fanout
	cat := benchCatalog(nOrders, fanout)
	bytesPerRun := func(sel string) float64 {
		q, err := sqlparse.Parse(sel + " from Ord o, Line l, Line l2" +
			" where o.okey = l.okey and l.okey = l2.okey and l.lnum = l2.lnum order by o.okey")
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			r, err := RunContext(context.Background(), cat, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) != rows {
				t.Fatalf("join produced %d rows, want %d", len(r.Rows), rows)
			}
		}
		run()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	narrow := bytesPerRun("select o.okey")
	wide := bytesPerRun("select o.okey, o.clerk, o.total, l.okey, l.lnum, l.qty, l2.okey, l2.lnum, l2.qty")
	projection := float64(rows * 8 * unsafe.Sizeof(value.Value{}))
	ids := float64(rows * 2 * 4 * 2)
	const slack = 16 << 10
	t.Logf("bytes per query: %.0f selecting 1 column, %.0f selecting 9; projection accounts for %.0f", narrow, wide, projection)
	if wide-narrow > projection+ids+slack {
		t.Errorf("selecting 9 columns allocates %.0f more bytes than selecting 1, want at most %.0f (projection) + %.0f (IDs) + %d",
			wide-narrow, projection, ids, slack)
	}
}

// TestResultBytesIndependentOfWidth pins that a query's result is its row
// IDs: the join of TestJoinBytesIndependentOfWidth, opened and read row by
// row, allocates the same bytes selecting one column or nine but for the
// wider run's ID columns (rows × 2 × 4 B per join) and the same 16 KiB of
// per-column bookkeeping. There is no per-value term: Next evaluates every
// row into one reused row, and nothing projects the result up front.
func TestResultBytesIndependentOfWidth(t *testing.T) {
	const nOrders, fanout = 1000, 4
	const rows = nOrders * fanout
	cat := benchCatalog(nOrders, fanout)
	bytesPerRun := func(sel string) float64 {
		q, err := sqlparse.Parse(sel + " from Ord o, Line l, Line l2" +
			" where o.okey = l.okey and l.okey = l2.okey and l.lnum = l2.lnum order by o.okey")
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := Open(context.Background(), cat, q)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, ok := res.Next(); ok; _, ok = res.Next() {
				n++
			}
			if n != rows {
				t.Fatalf("join produced %d rows, want %d", n, rows)
			}
		}
		run()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	narrow := bytesPerRun("select o.okey")
	wide := bytesPerRun("select o.okey, o.clerk, o.total, l.okey, l.lnum, l.qty, l2.okey, l2.lnum, l2.qty")
	ids := float64(rows * 2 * 4 * 2)
	const slack = 16 << 10
	t.Logf("bytes per query read row by row: %.0f selecting 1 column, %.0f selecting 9", narrow, wide)
	if wide-narrow > ids+slack {
		t.Errorf("selecting 9 columns allocates %.0f more bytes than selecting 1, want at most %.0f (IDs) + %d",
			wide-narrow, ids, slack)
	}
}
