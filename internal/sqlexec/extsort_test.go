package sqlexec

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"silkroute/internal/sqlparse"
	"silkroute/internal/table"
	"silkroute/internal/value"
)

func randomKeyed(rng *rand.Rand, n int) []keyedRow {
	rows := make([]keyedRow, n)
	for i := range rows {
		rows[i] = keyedRow{
			key: []value.Value{
				value.Int(int64(rng.Intn(10))),
				value.String(fmt.Sprintf("s%02d", rng.Intn(20))),
			},
			row: table.Row{value.Int(int64(i)), value.Float(rng.Float64())},
		}
	}
	return rows
}

func assertSorted(t *testing.T, rows []keyedRow) {
	t.Helper()
	for i := 1; i < len(rows); i++ {
		if lessKeyed(rows[i], rows[i-1]) {
			t.Fatalf("rows %d and %d out of order", i-1, i)
		}
	}
}

func TestExternalSortMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randomKeyed(rng, 500)
	inMem := append([]keyedRow{}, rows...)
	inMemSorted, err := sortKeyed(context.Background(), inMem, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{1, 7, 64, 499, 500} {
		ext := append([]keyedRow{}, rows...)
		extSorted, err := sortKeyed(context.Background(), ext, budget)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		assertSorted(t, extSorted)
		if len(extSorted) != len(inMemSorted) {
			t.Fatalf("budget %d: lost rows", budget)
		}
		for i := range extSorted {
			for k := range extSorted[i].key {
				if !value.Identical(extSorted[i].key[k], inMemSorted[i].key[k]) {
					t.Fatalf("budget %d: key mismatch at row %d", budget, i)
				}
			}
		}
	}
}

func TestExternalSortPreservesRowPayloads(t *testing.T) {
	rows := []keyedRow{
		{key: []value.Value{value.Int(2)}, row: table.Row{value.String("two"), value.Null}},
		{key: []value.Value{value.Int(1)}, row: table.Row{value.String("one"), value.Float(1.5)}},
		{key: []value.Value{value.Null}, row: table.Row{value.String("null"), value.Int(-1)}},
	}
	sorted, err := sortKeyed(context.Background(), rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sorted[0].row[0].AsString() != "null" || sorted[1].row[0].AsString() != "one" || sorted[2].row[0].AsString() != "two" {
		t.Errorf("payload order wrong: %v %v %v", sorted[0].row[0], sorted[1].row[0], sorted[2].row[0])
	}
	if !sorted[2].row[1].IsNull() {
		t.Error("null payload lost through spill")
	}
	if sorted[1].row[1].AsFloat() != 1.5 {
		t.Error("float payload corrupted through spill")
	}
}

func TestExternalSortEmpty(t *testing.T) {
	out, err := sortKeyed(context.Background(), nil, 1)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sort: %v %v", out, err)
	}
}

func TestQuickExternalSortEquivalence(t *testing.T) {
	prop := func(seed int64, nRaw uint8, budgetRaw uint8) bool {
		n := int(nRaw)%120 + 1
		budget := int(budgetRaw)%n + 1
		rng := rand.New(rand.NewSource(seed))
		rows := randomKeyed(rng, n)
		a, err1 := sortKeyed(context.Background(), append([]keyedRow{}, rows...), 0)
		b, err2 := sortKeyed(context.Background(), append([]keyedRow{}, rows...), budget)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			for k := range a[i].key {
				if !value.Identical(a[i].key[k], b[i].key[k]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// budgetCatalog wraps a catalog with a sort budget.
type budgetCatalog struct {
	testCatalog
	rows int
}

func (b budgetCatalog) SortMemoryRows() int { return b.rows }

func TestQueryResultsIdenticalUnderSpill(t *testing.T) {
	cat := paperCatalog(t)
	src := `select s.suppkey, Q.pname from Supplier s left outer join
		(select ps.suppkey as sk, p.name as pname from PartSupp ps, Part p
		 where ps.partkey = p.partkey) as Q on s.suppkey = Q.sk
		order by s.suppkey, Q.pname`
	q, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	unlimited, err := RunContext(context.Background(), cat, q)
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := RunContext(context.Background(), budgetCatalog{cat, 1}, q)
	if err != nil {
		t.Fatal(err)
	}
	if flatten(unlimited) != flatten(spilled) {
		t.Errorf("spilled sort changed results:\n%s\n%s", flatten(unlimited), flatten(spilled))
	}
	if !strings.Contains(flatten(spilled), "plated brass") {
		t.Error("spilled result lost data")
	}
}
