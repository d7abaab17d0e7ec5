package sqlexec

import (
	"context"
	"strings"
	"testing"

	"silkroute/internal/schema"
	"silkroute/internal/sqlparse"
	"silkroute/internal/table"
	"silkroute/internal/value"
)

// testCatalog is the Fig. 8 database fragment from the paper: three
// suppliers, one with two parts, one with none, one with one part.
type testCatalog map[string]*table.Table

func (c testCatalog) Lookup(name string) (*table.Table, bool) {
	t, ok := c[strings.ToLower(name)]
	return t, ok
}

func paperCatalog(t testing.TB) testCatalog {
	t.Helper()
	s := schema.New()
	supplier := s.MustAddRelation("Supplier", []string{"suppkey"},
		schema.Column{Name: "suppkey", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "addr", Type: value.KindString},
		schema.Column{Name: "nationkey", Type: value.KindInt})
	nation := s.MustAddRelation("Nation", []string{"nationkey"},
		schema.Column{Name: "nationkey", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "regionkey", Type: value.KindInt})
	partsupp := s.MustAddRelation("PartSupp", []string{"partkey", "suppkey"},
		schema.Column{Name: "partkey", Type: value.KindInt},
		schema.Column{Name: "suppkey", Type: value.KindInt},
		schema.Column{Name: "availqty", Type: value.KindInt})
	part := s.MustAddRelation("Part", []string{"partkey"},
		schema.Column{Name: "partkey", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "retail", Type: value.KindFloat})

	ts := table.New(supplier)
	ts.MustInsert(value.Int(1), value.String("USA Metalworks"), value.String("New York"), value.Int(24))
	ts.MustInsert(value.Int(2), value.String("Romana Espanola"), value.String("Madrid"), value.Int(3))
	ts.MustInsert(value.Int(3), value.String("Fonderie Francais"), value.String("Paris"), value.Int(19))

	tn := table.New(nation)
	tn.MustInsert(value.Int(24), value.String("USA"), value.Int(1))
	tn.MustInsert(value.Int(3), value.String("Spain"), value.Int(2))
	tn.MustInsert(value.Int(19), value.String("France"), value.Int(3))

	tps := table.New(partsupp)
	tps.MustInsert(value.Int(4), value.Int(1), value.Int(100))
	tps.MustInsert(value.Int(12), value.Int(1), value.Int(320))
	tps.MustInsert(value.Int(20), value.Int(3), value.Int(64))

	tp := table.New(part)
	tp.MustInsert(value.Int(4), value.String("plated brass"), value.Float(904.00))
	tp.MustInsert(value.Int(12), value.String("anodized steel"), value.Float(912.01))
	tp.MustInsert(value.Int(20), value.String("polished nickel"), value.Float(920.02))

	return testCatalog{
		"supplier": ts, "nation": tn, "partsupp": tps, "part": tp,
	}
}

// run parses and executes src, failing the test on error.
func run(t *testing.T, cat Catalog, src string) *Rel {
	t.Helper()
	q, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	r, err := RunContext(context.Background(), cat, q)
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return r
}

// flatten renders a relation as "a|b,c|d" for compact assertions.
func flatten(r *Rel) string {
	var rows []string
	for _, row := range r.Rows {
		var vals []string
		for _, v := range row {
			vals = append(vals, v.Text())
		}
		rows = append(rows, strings.Join(vals, "|"))
	}
	return strings.Join(rows, ",")
}

func TestScanAndFilter(t *testing.T) {
	cat := paperCatalog(t)
	r := run(t, cat, "select s.suppkey, s.name from Supplier s where s.suppkey > 1 order by s.suppkey")
	if got := flatten(r); got != "2|Romana Espanola,3|Fonderie Francais" {
		t.Errorf("got %q", got)
	}
}

func TestCommaJoin(t *testing.T) {
	cat := paperCatalog(t)
	r := run(t, cat, `select s.suppkey, n.name from Supplier s, Nation n
		where s.nationkey = n.nationkey order by s.suppkey`)
	if got := flatten(r); got != "1|USA,2|Spain,3|France" {
		t.Errorf("got %q", got)
	}
}

func TestThreeWayJoinWithEarlyFilter(t *testing.T) {
	cat := paperCatalog(t)
	r := run(t, cat, `select s.suppkey, p.name from Supplier s, Part p, PartSupp ps
		where s.suppkey = ps.suppkey and ps.partkey = p.partkey and p.retail > 905
		order by s.suppkey, p.name`)
	if got := flatten(r); got != "1|anodized steel,3|polished nickel" {
		t.Errorf("got %q", got)
	}
}

func TestLeftOuterJoinKeepsUnmatchedSuppliers(t *testing.T) {
	cat := paperCatalog(t)
	// Supplier 2 has no parts; it must survive with NULL part columns —
	// the paper's core reason for outer joins ("there could be suppliers
	// without parts, and they need to appear in the XML document").
	r := run(t, cat, `select s.suppkey, Q.pname
		from Supplier s left outer join
		(select ps.suppkey as suppkey, p.name as pname from PartSupp ps, Part p
		 where ps.partkey = p.partkey) as Q
		on s.suppkey = Q.suppkey
		order by s.suppkey, Q.pname`)
	if got := flatten(r); got != "1|anodized steel,1|plated brass,2|,3|polished nickel" {
		t.Errorf("got %q", got)
	}
}

// TestLeftOuterJoinPadsEveryRightInput joins a supplier to a join of two
// tables: the right side has two inputs, and an unmatched supplier must
// read NULL from both.
func TestLeftOuterJoinPadsEveryRightInput(t *testing.T) {
	cat := paperCatalog(t)
	r := run(t, cat, `select s.suppkey, ps.partkey, p.name
		from Supplier s left outer join (PartSupp ps join Part p on ps.partkey = p.partkey)
		on s.suppkey = ps.suppkey
		order by s.suppkey, ps.partkey`)
	if got := flatten(r); got != "1|4|plated brass,1|12|anodized steel,2||,3|20|polished nickel" {
		t.Errorf("got %q", got)
	}
}

func TestPaperUnifiedOuterJoinQuery(t *testing.T) {
	cat := paperCatalog(t)
	// The complete §3.4 query: Supplier left-outer-joined to an outer
	// union of nation and part branches, with a disjunctive ON condition.
	r := run(t, cat, `select 1 as L1, L2, s.suppkey, Q.name, Q.pname
		from Supplier s left outer join
		((select 1 as L2, n.nationkey as nationkey, n.name as name, null as suppkey, null as pname from Nation n)
		 union
		 (select 2 as L2, null as nationkey, null as name, ps.suppkey as suppkey, p.name as pname
		  from PartSupp ps, Part p where ps.partkey = p.partkey)) as Q
		on (L2 = 1 and s.nationkey = Q.nationkey) or (L2 = 2 and s.suppkey = Q.suppkey)
		order by L1, s.suppkey, L2, Q.nationkey, Q.name, Q.pname`)
	// Fig. 9's integrated relation: supplier 1 gets USA + two parts,
	// supplier 2 gets Spain only, supplier 3 gets France + one part.
	want := "1|1|1|USA|," +
		"1|2|1||anodized steel," +
		"1|2|1||plated brass," +
		"1|1|2|Spain|," +
		"1|1|3|France|," +
		"1|2|3||polished nickel"
	if got := flatten(r); got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestUnionPositional(t *testing.T) {
	cat := paperCatalog(t)
	r := run(t, cat, `(select 1 as L2, n.name as name from Nation n where n.nationkey = 24)
		union (select 2 as L2, p.name as name from Part p where p.partkey = 4)
		order by L2`)
	if got := flatten(r); got != "1|USA,2|plated brass" {
		t.Errorf("got %q", got)
	}
}

func TestUnionArityMismatch(t *testing.T) {
	cat := paperCatalog(t)
	q, err := sqlparse.Parse("(select n.name from Nation n) union (select p.partkey, p.name from Part p)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), cat, q); err == nil {
		t.Error("union arity mismatch accepted")
	}
}

func TestOrderByOutputAliasAndNullsFirst(t *testing.T) {
	cat := paperCatalog(t)
	r := run(t, cat, `select s.suppkey as k, Q.pname as pname
		from Supplier s left outer join
		(select ps.suppkey as suppkey, p.name as pname from PartSupp ps, Part p
		 where ps.partkey = p.partkey) as Q
		on s.suppkey = Q.suppkey
		order by pname, k`)
	// NULL pname (supplier 2) sorts first.
	if got := flatten(r); got != "2|,1|anodized steel,1|plated brass,3|polished nickel" {
		t.Errorf("got %q", got)
	}
}

func TestIsNullPredicate(t *testing.T) {
	cat := paperCatalog(t)
	r := run(t, cat, `select q.k from
		(select s.suppkey as k, Q.pname as pname
		 from Supplier s left outer join
		 (select ps.suppkey as sk, p.name as pname from PartSupp ps, Part p
		  where ps.partkey = p.partkey) as Q
		 on s.suppkey = Q.sk) as q
		where q.pname is null order by q.k`)
	if got := flatten(r); got != "2" {
		t.Errorf("suppliers with no parts: got %q", got)
	}
}

func TestNullNeverJoins(t *testing.T) {
	cat := paperCatalog(t)
	// Add a supplier with NULL nationkey: it must not join to any nation,
	// but a left outer join must keep it.
	sup, _ := cat.Lookup("Supplier")
	sup.MustInsert(value.Int(9), value.String("Null Nation Inc"), value.String("Nowhere"), value.Null)

	inner := run(t, cat, `select s.suppkey from Supplier s, Nation n
		where s.nationkey = n.nationkey and s.suppkey = 9`)
	if len(inner.Rows) != 0 {
		t.Errorf("NULL key joined in inner join: %s", flatten(inner))
	}
	outer := run(t, cat, `select s.suppkey, n.name from Supplier s
		left outer join Nation n on s.nationkey = n.nationkey
		where s.suppkey = 9 order by s.suppkey`)
	if got := flatten(outer); got != "9|" {
		t.Errorf("left outer with NULL key: got %q", got)
	}
}

func TestCrossProductWhenNoPredicate(t *testing.T) {
	cat := paperCatalog(t)
	r := run(t, cat, "select s.suppkey, n.nationkey from Supplier s, Nation n order by s.suppkey, n.nationkey")
	if len(r.Rows) != 9 {
		t.Errorf("cross product has %d rows, want 9", len(r.Rows))
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	cat := paperCatalog(t)
	r := run(t, cat, "select 1 as a, 'x' as b")
	if got := flatten(r); got != "1|x" {
		t.Errorf("got %q", got)
	}
}

func TestBaseTableNotMutatedByFilter(t *testing.T) {
	cat := paperCatalog(t)
	before, _ := cat.Lookup("Supplier")
	n := before.Len()
	run(t, cat, "select s.suppkey from Supplier s where s.suppkey = 1")
	if before.Len() != n {
		t.Fatalf("base table mutated: %d rows, want %d", before.Len(), n)
	}
	r := run(t, cat, "select s.suppkey from Supplier s order by s.suppkey")
	if len(r.Rows) != n {
		t.Fatalf("second query sees %d rows, want %d", len(r.Rows), n)
	}
}

func TestErrors(t *testing.T) {
	cat := paperCatalog(t)
	bad := []string{
		"select s.suppkey from Ghost s",                     // unknown table
		"select s.ghost from Supplier s",                    // unknown column
		"select name from Supplier s, Nation n",             // ambiguous column
		"select s.suppkey from Supplier s order by s.ghost", // unknown sort key
		"select x.suppkey from Supplier s",                  // unknown qualifier
	}
	for _, src := range bad {
		q, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := RunContext(context.Background(), cat, q); err == nil {
			t.Errorf("RunContext(context.Background(), %q) succeeded, want error", src)
		}
	}
}

// TestColumnErrorsSurvivePruning pins the exact resolution errors, and the
// ON-clause resolutions that succeed, across pruned joins: every column a
// reference can match survives pruning, so each message names the same
// columns as over the unpruned relations.
func TestColumnErrorsSurvivePruning(t *testing.T) {
	cat := paperCatalog(t)
	cases := []struct{ src, want string }{
		{"select name from Supplier s, Nation n where s.nationkey = n.nationkey",
			`sqlexec: ambiguous column reference "name" (matches s.name and n.name)`},
		{"select s.suppkey from Supplier s, Nation n, PartSupp ps where s.nationkey = n.nationkey and s.suppkey = ps.suppkey and name = 'USA'",
			`sqlexec: ambiguous column reference "name" (matches s.name and n.name)`},
		{"select s.suppkey as k from Supplier s, Nation n where s.nationkey = n.nationkey order by name",
			`sqlexec: order by: sqlexec: ambiguous column reference "name" (matches s.name and n.name)`},
		{"select name from Supplier s left outer join PartSupp ps on s.suppkey = ps.suppkey, Part p where ps.partkey = p.partkey",
			`sqlexec: ambiguous column reference "name" (matches s.name and p.name)`},
		{"select ps.availqty, n.ghost from Supplier s join PartSupp ps on s.suppkey = ps.suppkey, Nation n where s.nationkey = n.nationkey",
			`sqlexec: unknown column "n.ghost"`},
		// Join order, not FROM order, decides which two columns are named.
		{"select name from Nation n, Part p, Supplier s where s.nationkey = n.nationkey",
			`sqlexec: ambiguous column reference "name" (matches n.name and s.name)`},
		{"select p.name from PartSupp ps join Part p on ps.partkey = p.partkey, PartSupp ps2 where availqty > 1",
			`sqlexec: ambiguous column reference "availqty" (matches ps.availqty and ps2.availqty)`},
		// An ON conjunct resolves against the left input first, so these
		// succeed; the left input must keep s.name for that.
		{"select s.suppkey from Supplier s left outer join Nation n on s.nationkey = n.nationkey and name = 'USA'", ""},
		{"select s.suppkey from Supplier s join PartSupp ps on s.suppkey = ps.suppkey join Part p on ps.partkey = p.partkey and name = 'x'", ""},
	}
	for _, c := range cases {
		q, err := sqlparse.Parse(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		_, err = RunContext(context.Background(), cat, q)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("RunContext(context.Background(), %q):\n got error %q\nwant error %q", c.src, got, c.want)
		}
	}
}

func TestDisjunctsDoNotDuplicateMatches(t *testing.T) {
	cat := paperCatalog(t)
	// Both disjuncts match the same pairs; each pair must appear once.
	r := run(t, cat, `select s.suppkey, n.name from Supplier s
		left outer join Nation n
		on (s.nationkey = n.nationkey) or (s.nationkey = n.nationkey and s.suppkey > 0)
		order by s.suppkey`)
	if got := flatten(r); got != "1|USA,2|Spain,3|France" {
		t.Errorf("got %q", got)
	}
}

func TestNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	cat := paperCatalog(t)
	r := run(t, cat, `select s.suppkey, n.nationkey from Supplier s
		join Nation n on s.nationkey < n.nationkey
		order by s.suppkey, n.nationkey`)
	// suppkey1 nk24: none; suppkey2 nk3: 19,24; suppkey3 nk19: 24.
	if got := flatten(r); got != "2|19,2|24,3|24" {
		t.Errorf("got %q", got)
	}
}

func TestStableDeterministicOutput(t *testing.T) {
	cat := paperCatalog(t)
	src := `select s.suppkey, Q.pname from Supplier s left outer join
		(select ps.suppkey as sk, p.name as pname from PartSupp ps, Part p
		 where ps.partkey = p.partkey) as Q on s.suppkey = Q.sk
		order by s.suppkey`
	first := flatten(run(t, cat, src))
	for i := 0; i < 5; i++ {
		if got := flatten(run(t, cat, src)); got != first {
			t.Fatalf("nondeterministic output on run %d:\n%q\n%q", i, got, first)
		}
	}
}

// TestUnionFirstBranchNotAliased guards evalUnion's append: later
// branches are appended to the first branch's rows, which are safe to
// extend because every branch is a fresh projection. Both branches read
// the one stored table; if a branch handed back its rows in place, the
// append would splice the second branch into the table, and a second run
// would disagree with the first.
func TestUnionFirstBranchNotAliased(t *testing.T) {
	cat := paperCatalog(t)
	src := `(select n1.nationkey as k, n1.name as name from Nation n1 where n1.nationkey < 20)
	       union (select n2.nationkey as k, n2.name as name from Nation n2 where n2.nationkey >= 20)
	       order by k`
	want := run(t, cat, src)
	got := run(t, cat, src)
	if flatten(want) != flatten(got) {
		t.Errorf("union over one table unstable:\nfirst:  %q\nsecond: %q", flatten(want), flatten(got))
	}
	if flatten(got) != "3|Spain,19|France,24|USA" {
		t.Errorf("union over one table = %q", flatten(got))
	}
	// The stored base table must be untouched too.
	nat, _ := cat.Lookup("Nation")
	if nat.Len() != 3 || nat.Row(0)[1].AsString() != "USA" {
		t.Errorf("base table mutated by union: %v", nat.Row(0))
	}
}
