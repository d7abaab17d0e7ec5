package tpch

import (
	"context"
	"testing"

	"silkroute/internal/engine"
)

func TestSchemaComplete(t *testing.T) {
	s := Schema()
	for _, name := range []string{"Supplier", "PartSupp", "Part", "Customer", "LineItem", "Orders", "Nation", "Region"} {
		if _, ok := s.Relation(name); !ok {
			t.Errorf("relation %s missing", name)
		}
	}
	if len(s.FKs) != 8 {
		t.Errorf("expected 8 foreign keys, got %d", len(s.FKs))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.001, 42)
	b := Generate(0.001, 42)
	for _, rel := range []string{"Supplier", "LineItem", "Orders"} {
		ta, tb := a.MustTable(rel), b.MustTable(rel)
		if ta.Len() != tb.Len() {
			t.Fatalf("%s: %d vs %d rows", rel, ta.Len(), tb.Len())
		}
		for i := range ta.Rows {
			for c := range ta.Rows[i] {
				if ta.Rows[i][c] != tb.Rows[i][c] {
					t.Fatalf("%s row %d differs", rel, i)
				}
			}
		}
	}
	c := Generate(0.001, 43)
	if same := c.MustTable("Supplier").Rows[0][2] == a.MustTable("Supplier").Rows[0][2]; same {
		t.Error("different seeds produced identical addresses")
	}
}

func TestGenerateSizes(t *testing.T) {
	sf := 0.002
	db := Generate(sf, 1)
	sz := SizesFor(sf)
	if got := db.MustTable("Supplier").Len(); got != sz.Suppliers {
		t.Errorf("suppliers = %d, want %d", got, sz.Suppliers)
	}
	if got := db.MustTable("Part").Len(); got != sz.Parts {
		t.Errorf("parts = %d, want %d", got, sz.Parts)
	}
	if got := db.MustTable("Orders").Len(); got != sz.Orders {
		t.Errorf("orders = %d, want %d", got, sz.Orders)
	}
	// Line items average 4 per order.
	li := db.MustTable("LineItem").Len()
	if li < sz.Orders*2 || li > sz.Orders*7 {
		t.Errorf("line items = %d, outside [%d,%d]", li, sz.Orders*2, sz.Orders*7)
	}
	if db.MustTable("Nation").Len() != 25 || db.MustTable("Region").Len() != 5 {
		t.Error("fixed-size tables wrong")
	}
}

func TestForeignKeysActuallyJoin(t *testing.T) {
	db := Generate(0.001, 7)
	checks := []struct {
		name string
		sql  string
		rel  string
	}{
		{"supplier→nation", "select s.suppkey from Supplier s, Nation n where s.nationkey = n.nationkey", "Supplier"},
		{"partsupp→part", "select ps.partkey from PartSupp ps, Part p where ps.partkey = p.partkey", "PartSupp"},
		{"partsupp→supplier", "select ps.partkey from PartSupp ps, Supplier s where ps.suppkey = s.suppkey", "PartSupp"},
		{"orders→customer", "select o.orderkey from Orders o, Customer c where o.custkey = c.custkey", "Orders"},
		{"lineitem→orders", "select l.orderkey from LineItem l, Orders o where l.orderkey = o.orderkey", "LineItem"},
		{"lineitem→partsupp", "select l.orderkey from LineItem l, PartSupp ps where l.partkey = ps.partkey and l.suppkey = ps.suppkey", "LineItem"},
	}
	for _, c := range checks {
		res, err := db.ExecuteContext(context.Background(), c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Len() != db.MustTable(c.rel).Len() {
			t.Errorf("%s: join produced %d rows, relation has %d (dangling foreign keys)",
				c.name, res.Len(), db.MustTable(c.rel).Len())
		}
	}
}

func TestSomeSuppliersHaveNoParts(t *testing.T) {
	db := Generate(0.002, 7)
	total := db.MustTable("Supplier").Len()
	res, err := db.ExecuteContext(context.Background(), `select q.k from
		(select s.suppkey as k, ps.partkey as pk from Supplier s
		 left outer join PartSupp ps on s.suppkey = ps.suppkey) as q
		where q.pk is null order by q.k`)
	if err != nil {
		t.Fatal(err)
	}
	// Deduplicate suppkeys (left rows with no match appear once each).
	if res.Len() == 0 {
		t.Error("every supplier has parts; outer joins would be unobservable")
	}
	if res.Len() >= total {
		t.Errorf("no supplier has parts: %d of %d", res.Len(), total)
	}
}

func TestScaleRatioBetweenConfigs(t *testing.T) {
	if ScaleConfigB/ScaleConfigA != 100 {
		t.Errorf("config scale ratio = %v, paper used 1:100", ScaleConfigB/ScaleConfigA)
	}
}

func TestPartKeysAreDenseFromOne(t *testing.T) {
	db := Generate(0.001, 7)
	res, err := db.ExecuteContext(context.Background(), "select p.partkey from Part p order by p.partkey")
	if err != nil {
		t.Fatal(err)
	}
	var i int64 = 1
	for {
		row, ok := res.Next()
		if !ok {
			break
		}
		if row[0].AsInt() != i {
			t.Fatalf("partkey gap at %d", i)
		}
		i++
	}
}

func BenchmarkGenerateConfigA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := Generate(ScaleConfigA, 42)
		if db == nil {
			b.Fatal("nil db")
		}
	}
}

var benchSink *engine.Database

func BenchmarkGenerateSF001(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = Generate(0.01, 42)
	}
}
