package sqlexec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"silkroute/internal/sqlparse"
	"silkroute/internal/table"
	"silkroute/internal/value"
)

// sortKeys are the key columns of randomRows' rows.
var sortKeys = []int{0, 1}

// randomRows returns n rows whose key columns (sortKeys) repeat often,
// followed by payload columns: the row's index, which tells tied rows
// apart, and a float.
func randomRows(rng *rand.Rand, n int) []table.Row {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{
			value.Int(int64(rng.Intn(10))),
			value.String(fmt.Sprintf("s%02d", rng.Intn(20))),
			value.Int(int64(i)),
			value.Float(rng.Float64()),
		}
	}
	return rows
}

// sorted sorts a copy of rows under budget.
func sorted(t testing.TB, rows []table.Row, budget int) []table.Row {
	t.Helper()
	out := slices.Clone(rows)
	if err := sortRows(context.Background(), out, sortKeys, budget); err != nil {
		t.Fatalf("budget %d: %v", budget, err)
	}
	return out
}

// sameRows reports whether a and b hold identical rows in the same order.
func sameRows(a, b []table.Row) bool {
	return slices.EqualFunc(a, b, func(x, y table.Row) bool { return slices.EqualFunc(x, y, value.Identical) })
}

// TestExternalSortMatchesInMemory: a spilled sort orders rows by their key
// columns and returns exactly the rows, ties included, in the order the
// stable in-memory sort does.
func TestExternalSortMatchesInMemory(t *testing.T) {
	rows := randomRows(rand.New(rand.NewSource(7)), 500)
	inMem := sorted(t, rows, 0)
	for _, budget := range []int{1, 7, 64, 499, 500} {
		ext := sorted(t, rows, budget)
		for i := 1; i < len(ext); i++ {
			if compareKeys(ext[i], ext[i-1], sortKeys) < 0 {
				t.Fatalf("budget %d: rows %d and %d out of order", budget, i-1, i)
			}
		}
		if !sameRows(ext, inMem) {
			t.Fatalf("budget %d: spilled sort differs from the in-memory sort", budget)
		}
	}
}

// TestExternalSortPreservesRowPayloads: NULL keys sort first, and NULL and
// float payloads survive the spill.
func TestExternalSortPreservesRowPayloads(t *testing.T) {
	rows := []table.Row{
		{value.String("two"), value.Null, value.Int(2)},
		{value.String("one"), value.Float(1.5), value.Int(1)},
		{value.String("null"), value.Int(-1), value.Null},
	}
	out := slices.Clone(rows)
	if err := sortRows(context.Background(), out, []int{2}, 1); err != nil {
		t.Fatal(err)
	}
	if out[0][0].AsString() != "null" || out[1][0].AsString() != "one" || out[2][0].AsString() != "two" {
		t.Errorf("payload order wrong: %v %v %v", out[0][0], out[1][0], out[2][0])
	}
	if !out[2][1].IsNull() {
		t.Error("null payload lost through spill")
	}
	if out[1][1].AsFloat() != 1.5 {
		t.Error("float payload corrupted through spill")
	}
}

func TestExternalSortEmpty(t *testing.T) {
	if out := sorted(t, nil, 1); len(out) != 0 {
		t.Fatalf("empty sort: %v", out)
	}
}

func TestQuickExternalSortEquivalence(t *testing.T) {
	prop := func(seed int64, nRaw uint8, budgetRaw uint8) bool {
		n := int(nRaw)%120 + 1
		budget := int(budgetRaw)%n + 1
		rows := randomRows(rand.New(rand.NewSource(seed)), n)
		return sameRows(sorted(t, rows, 0), sorted(t, rows, budget))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// budgetCatalog wraps a catalog with a sort budget.
type budgetCatalog struct {
	Catalog
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
