package sqlparse_test

import (
	"context"
	"testing"

	"silkroute"
	"silkroute/internal/rxl"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlparse"
)

// roundTripSrcs covers every construct of the SQL subset.
var roundTripSrcs = []string{
	"select s.suppkey from Supplier s",
	"select s.suppkey, n.name from Supplier s, Nation n where s.nationkey = n.nationkey order by s.suppkey",
	"select 1 as L1, null as x from T t where t.a <> 3 and (t.b < 4 or t.c >= 5)",
	"select a.x from A a left outer join B b on a.k = b.k order by a.x",
	"(select 1 as L2, n.name as name from Nation n) union (select 2 as L2, null as name from Region r) order by L2",
	"select q.v from (select t.v as v from T t) as q where q.v is not null",
	"select a.x from A a join B b on a.k = b.k left outer join C c on a.j = c.j",
}

// reprint parses src and prints the tree back.
func reprint(src string) (string, error) {
	q, err := sqlparse.Parse(src)
	if err != nil {
		return "", err
	}
	return sqlast.Print(q), nil
}

func TestPrintParseRoundTrip(t *testing.T) {
	for _, src := range roundTripSrcs {
		once, err := reprint(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		twice, err := reprint(once)
		if err != nil {
			t.Fatalf("Parse(%q): %v", once, err)
		}
		if once != twice {
			t.Errorf("print/parse not a fixed point:\n first: %s\nsecond: %s", once, twice)
		}
	}
}

// FuzzPrintParse: whatever parses prints to SQL that parses back and
// prints identically (Print → Parse → Print is a fixed point), and
// nothing panics. The seeds are the round-trip table and every stream the
// generator writes for Q1, Q2 and the fragment under each strategy.
func FuzzPrintParse(f *testing.F) {
	for _, src := range roundTripSrcs {
		f.Add(src)
	}
	db := silkroute.OpenTPCH(0.001, 42)
	for _, src := range []string{rxl.Query1Source, rxl.Query2Source, rxl.FragmentSource} {
		v, err := silkroute.ParseView(db, src)
		if err != nil {
			f.Fatal(err)
		}
		for _, s := range silkroute.Strategies() {
			e, err := v.Explain(context.Background(), s)
			if err != nil {
				f.Fatal(err)
			}
			for _, sql := range e.SQL {
				f.Add(sql)
			}
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		once, err := reprint(src)
		if err != nil {
			return
		}
		twice, err := reprint(once)
		if err != nil {
			t.Fatalf("printed form of %q does not parse: %v\n%s", src, err, once)
		}
		if once != twice {
			t.Fatalf("print/parse not a fixed point for %q:\n first: %s\nsecond: %s", src, once, twice)
		}
	})
}
