package engine

import (
	"context"
	"testing"

	"silkroute/internal/schema"
	"silkroute/internal/value"
)

// smallDB builds a Supplier/Nation/PartSupp/Part database with skewed
// cardinalities so estimate ordering is meaningful: many partsupp rows, few
// nations.
func smallDB(t *testing.T) *Database {
	t.Helper()
	s := schema.New()
	s.MustAddRelation("Supplier", []string{"suppkey"},
		schema.Column{Name: "suppkey", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "nationkey", Type: value.KindInt})
	s.MustAddRelation("Nation", []string{"nationkey"},
		schema.Column{Name: "nationkey", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString})
	s.MustAddRelation("PartSupp", []string{"partkey", "suppkey"},
		schema.Column{Name: "partkey", Type: value.KindInt},
		schema.Column{Name: "suppkey", Type: value.KindInt})
	s.MustAddRelation("Part", []string{"partkey"},
		schema.Column{Name: "partkey", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString})
	db := NewDatabase(s)

	nations := []string{"USA", "Spain", "France", "Japan"}
	for i, n := range nations {
		db.MustTable("Nation").MustInsert(value.Int(int64(i)), value.String(n))
	}
	for i := 0; i < 40; i++ {
		db.MustTable("Supplier").MustInsert(
			value.Int(int64(i)), value.String("supplier"), value.Int(int64(i%4)))
	}
	for p := 0; p < 100; p++ {
		db.MustTable("Part").MustInsert(value.Int(int64(p)), value.String("part"))
		for s := 0; s < 4; s++ {
			db.MustTable("PartSupp").MustInsert(value.Int(int64(p)), value.Int(int64((p+s*7)%40)))
		}
	}
	return db
}

func TestExecuteStreamsRows(t *testing.T) {
	db := smallDB(t)
	res, err := db.ExecuteContext(context.Background(), "select s.suppkey from Supplier s where s.nationkey = 0 order by s.suppkey")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Fatalf("Len = %d, want 10", res.Len())
	}
	var count int
	var last int64 = -1
	for {
		row, ok := res.Next()
		if !ok {
			break
		}
		count++
		k := row[0].AsInt()
		if k <= last {
			t.Errorf("rows out of order: %d after %d", k, last)
		}
		last = k
	}
	if count != 10 {
		t.Errorf("drained %d rows, want 10", count)
	}
	if _, ok := res.Next(); ok {
		t.Error("Next after exhaustion returned a row")
	}
}

func TestExecuteParseError(t *testing.T) {
	db := smallDB(t)
	if _, err := db.ExecuteContext(context.Background(), "selec nonsense"); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, err := db.ExecuteContext(context.Background(), "select g.x from Ghost g"); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestTableLookup(t *testing.T) {
	db := smallDB(t)
	if _, err := db.Table("nation"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := db.Table("ghost"); err == nil {
		t.Error("unknown table lookup succeeded")
	}
}

func TestEstimateBaseCardinalities(t *testing.T) {
	db := smallDB(t)
	est, err := db.EstimateSQL("select s.suppkey, s.name, s.nationkey from Supplier s")
	if err != nil {
		t.Fatal(err)
	}
	if est.Rows != 40 {
		t.Errorf("Supplier scan rows = %v, want 40", est.Rows)
	}
	if est.Width <= 0 || est.Cost <= 0 {
		t.Errorf("estimate has non-positive width/cost: %+v", est)
	}
}

func TestEstimateEquiJoinSelectivity(t *testing.T) {
	db := smallDB(t)
	est, err := db.EstimateSQL(`select s.suppkey, n.name from Supplier s, Nation n
		where s.nationkey = n.nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	// 40 suppliers × 4 nations / max(4,4) = 40.
	if est.Rows < 20 || est.Rows > 80 {
		t.Errorf("join estimate = %v, want ≈40", est.Rows)
	}
}

func TestEstimateKeyJoinIsCalibrated(t *testing.T) {
	db := smallDB(t)
	est, err := db.EstimateSQL(`select ps.suppkey, p.name from PartSupp ps, Part p
		where ps.partkey = p.partkey`)
	if err != nil {
		t.Fatal(err)
	}
	// 400 partsupp rows join part on its key: ≈400 rows.
	if est.Rows < 200 || est.Rows > 800 {
		t.Errorf("key join estimate = %v, want ≈400", est.Rows)
	}
	// And the real execution agrees.
	res, err := db.ExecuteContext(context.Background(), `select ps.suppkey, p.name from PartSupp ps, Part p
		where ps.partkey = p.partkey`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 400 {
		t.Errorf("actual join rows = %d, want 400", res.Len())
	}
}

func TestEstimateFilterSelectivity(t *testing.T) {
	db := smallDB(t)
	all, err := db.EstimateSQL("select s.suppkey from Supplier s")
	if err != nil {
		t.Fatal(err)
	}
	one, err := db.EstimateSQL("select s.suppkey from Supplier s where s.suppkey = 7")
	if err != nil {
		t.Fatal(err)
	}
	if one.Rows >= all.Rows {
		t.Errorf("equality filter did not reduce estimate: %v >= %v", one.Rows, all.Rows)
	}
	if one.Rows > 2 {
		t.Errorf("key-equality estimate = %v, want ≈1", one.Rows)
	}
}

func TestEstimateLeftOuterJoinAtLeastLeft(t *testing.T) {
	db := smallDB(t)
	est, err := db.EstimateSQL(`select s.suppkey, q.pname from Supplier s
		left outer join (select ps.suppkey as sk, p.name as pname
			from PartSupp ps, Part p where ps.partkey = p.partkey) as q
		on s.suppkey = q.sk`)
	if err != nil {
		t.Fatal(err)
	}
	if est.Rows < 40 {
		t.Errorf("left outer join estimate %v is below left cardinality 40", est.Rows)
	}
}

func TestEstimateSortAddsCost(t *testing.T) {
	db := smallDB(t)
	flat, err := db.EstimateSQL("select ps.partkey from PartSupp ps")
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := db.EstimateSQL("select ps.partkey from PartSupp ps order by ps.partkey")
	if err != nil {
		t.Fatal(err)
	}
	if sorted.Cost <= flat.Cost {
		t.Errorf("sort did not add cost: %v <= %v", sorted.Cost, flat.Cost)
	}
}

func TestEstimateUnionSumsRows(t *testing.T) {
	db := smallDB(t)
	est, err := db.EstimateSQL(`(select 1 as L2, n.name as name from Nation n)
		union (select 2 as L2, p.name as name from Part p)`)
	if err != nil {
		t.Fatal(err)
	}
	if est.Rows < 100 || est.Rows > 110 {
		t.Errorf("union estimate = %v, want 104", est.Rows)
	}
}

func TestEstimateRequestCounter(t *testing.T) {
	db := smallDB(t)
	db.ResetEstimateRequests()
	for i := 0; i < 3; i++ {
		if _, err := db.EstimateSQL("select n.name from Nation n"); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.EstimateRequests(); got != 3 {
		t.Errorf("EstimateRequests = %d, want 3", got)
	}
	db.ResetEstimateRequests()
	if got := db.EstimateRequests(); got != 0 {
		t.Errorf("after reset = %d, want 0", got)
	}
}

func TestEstimatePerQueryOverhead(t *testing.T) {
	db := smallDB(t)
	est, err := db.EstimateSQL("select n.nationkey from Nation n")
	if err != nil {
		t.Fatal(err)
	}
	if est.Cost < perQueryOverhead {
		t.Errorf("cost %v does not include per-query overhead %v", est.Cost, perQueryOverhead)
	}
}

func TestEstimateDataSize(t *testing.T) {
	e := Estimate{Rows: 10, Width: 7}
	if e.DataSize() != 70 {
		t.Errorf("DataSize = %v, want 70", e.DataSize())
	}
}

func TestEstimateErrors(t *testing.T) {
	db := smallDB(t)
	if _, err := db.EstimateSQL("not sql at all ("); err == nil {
		t.Error("estimate of invalid SQL succeeded")
	}
	if _, err := db.EstimateSQL("select g.x from Ghost g"); err == nil {
		t.Error("estimate of unknown table succeeded")
	}
}

func TestEstimateChargesSpillBeyondBudget(t *testing.T) {
	db := smallDB(t)
	sql := "select ps.partkey, ps.suppkey from PartSupp ps order by ps.partkey, ps.suppkey"
	free, err := db.EstimateSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	db.SortBudgetRows = 100 // 400 partsupp rows exceed the budget
	spilled, err := db.EstimateSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Cost <= free.Cost {
		t.Errorf("spilling sort not charged: %v <= %v", spilled.Cost, free.Cost)
	}
	db.SortBudgetRows = 100000 // comfortably in memory again
	roomy, err := db.EstimateSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if roomy.Cost != free.Cost {
		t.Errorf("large budget changed the estimate: %v != %v", roomy.Cost, free.Cost)
	}
}

func TestExecutionIdenticalWithAndWithoutSpill(t *testing.T) {
	db := smallDB(t)
	sql := "select ps.partkey, ps.suppkey from PartSupp ps order by ps.partkey, ps.suppkey"
	free, err := db.ExecuteContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	db.SortBudgetRows = 7
	spilled, err := db.ExecuteContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if free.Len() != spilled.Len() {
		t.Fatalf("row counts differ: %d vs %d", free.Len(), spilled.Len())
	}
	for {
		a, ok1 := free.Next()
		b, ok2 := spilled.Next()
		if ok1 != ok2 {
			t.Fatal("stream lengths diverge")
		}
		if !ok1 {
			break
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row differs: %v vs %v", a, b)
			}
		}
	}
}

// TestStatsEpochSumsTableVersions pins the one write signal: the stats
// epoch moves by exactly one per insert, whichever table absorbs it, and
// always equals the sum of the tables' write versions.
func TestStatsEpochSumsTableVersions(t *testing.T) {
	db := smallDB(t)
	sum := func() int64 {
		var n int64
		for name := range db.Schema.Relations {
			n += db.TableVersion(name)
		}
		return n
	}
	if got := db.StatsEpoch(); got != 4+40+100+400 || got != sum() {
		t.Fatalf("StatsEpoch = %d after loading 544 rows, version sum %d", got, sum())
	}
	for _, rel := range []string{"Nation", "PartSupp", "Nation", "Part", "Supplier"} {
		tbl := db.MustTable(rel)
		before, version := db.StatsEpoch(), tbl.Version()
		row := make([]value.Value, len(tbl.Rel.Columns))
		for i := range row {
			row[i] = value.Int(int64(1000 + i))
		}
		tbl.MustInsert(row...)
		if got := db.StatsEpoch(); got != before+1 {
			t.Errorf("insert into %s moved StatsEpoch %d → %d, want +1", rel, before, got)
		}
		if got := tbl.Version(); got != version+1 {
			t.Errorf("insert into %s moved its version %d → %d, want +1", rel, version, got)
		}
		if got := db.StatsEpoch(); got != sum() {
			t.Errorf("StatsEpoch %d differs from the version sum %d", got, sum())
		}
	}
	if v := db.TableVersion("NoSuchTable"); v != -1 {
		t.Errorf("TableVersion of an unknown relation = %d, want -1", v)
	}
}
