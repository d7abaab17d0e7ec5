package sqlparse

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"silkroute/internal/sqlast"
	"silkroute/internal/value"
)

func TestParseSimpleSelect(t *testing.T) {
	q, err := Parse("select s.suppkey, s.name from Supplier s where s.suppkey = 3")
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := q.(*sqlast.Select)
	if !ok {
		t.Fatalf("got %T", q)
	}
	if len(sel.Items) != 2 || len(sel.From) != 1 || sel.Where == nil {
		t.Fatalf("structure wrong: %+v", sel)
	}
	bt := sel.From[0].(*sqlast.BaseTable)
	if bt.Name != "Supplier" || bt.Alias != "s" {
		t.Errorf("from = %+v", bt)
	}
	cmp := sel.Where.(*sqlast.Compare)
	if cmp.Op != sqlast.OpEq {
		t.Errorf("where op = %v", cmp.Op)
	}
	if lit := cmp.R.(*sqlast.Literal); lit.Val.AsInt() != 3 {
		t.Errorf("literal = %v", lit.Val)
	}
}

func TestParseCommaJoinAndOrderBy(t *testing.T) {
	q, err := Parse("select s.suppkey, n.name from Supplier s, Nation n where s.nationkey = n.nationkey order by s.suppkey, n.name")
	if err != nil {
		t.Fatal(err)
	}
	sel := q.(*sqlast.Select)
	if len(sel.From) != 2 {
		t.Fatalf("want 2 from items, got %d", len(sel.From))
	}
	if len(sel.OrderBy) != 2 {
		t.Fatalf("want 2 order items, got %d", len(sel.OrderBy))
	}
}

func TestParseSortBySynonym(t *testing.T) {
	// The paper's example SQL uses "sort by"; accept it as order by.
	q, err := Parse("select s.suppkey from Supplier s sort by s.suppkey")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.(*sqlast.Select).OrderBy) != 1 {
		t.Error("sort by not parsed")
	}
}

func TestParseLeftOuterJoinWithDerived(t *testing.T) {
	src := `select s.suppkey, n.name, Q.pname
		from Supplier s, Nation n
		left outer join (select ps.suppkey as suppkey, p.name as pname
		                 from PartSupp ps, Part p
		                 where ps.partkey = p.partkey) as Q
		on s.suppkey = Q.suppkey
		where s.nationkey = n.nationkey
		order by s.suppkey`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sel := q.(*sqlast.Select)
	// The join attaches to the last comma-list entry (Nation n).
	if len(sel.From) != 2 {
		t.Fatalf("want 2 from entries, got %d", len(sel.From))
	}
	j, ok := sel.From[1].(*sqlast.Join)
	if !ok {
		t.Fatalf("second from entry is %T, want Join", sel.From[1])
	}
	if j.Kind != sqlast.JoinLeftOuter {
		t.Error("join kind not left outer")
	}
	d, ok := j.R.(*sqlast.Derived)
	if !ok || d.Alias != "Q" {
		t.Fatalf("right side = %#v", j.R)
	}
	if len(d.Query.(*sqlast.Select).Items) != 2 {
		t.Error("derived select items wrong")
	}
}

func TestParseUnionWithNullPadding(t *testing.T) {
	src := `(select 1 as L2, n.nationkey as nationkey, n.name as name, null as suppkey, null as pname from Nation n)
		union
		(select 2 as L2, null as nationkey, null as name, ps.suppkey as suppkey, p.name as pname from PartSupp ps, Part p where ps.partkey = p.partkey)`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := q.(*sqlast.Union)
	if !ok {
		t.Fatalf("got %T", q)
	}
	if len(u.Branches) != 2 {
		t.Fatalf("want 2 branches, got %d", len(u.Branches))
	}
	first := u.Branches[0]
	if lit, ok := first.Items[0].Expr.(*sqlast.Literal); !ok || lit.Val.AsInt() != 1 || first.Items[0].Alias != "L2" {
		t.Errorf("tag item = %+v", first.Items[0])
	}
	if lit, ok := first.Items[3].Expr.(*sqlast.Literal); !ok || !lit.Val.IsNull() {
		t.Errorf("null padding item = %+v", first.Items[3])
	}
	names := sqlast.OutputColumns(u)
	want := []string{"L2", "nationkey", "name", "suppkey", "pname"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("output column %d = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestParsePaperUnifiedQuery(t *testing.T) {
	// The full §3.4 example: outer join of Supplier with a union of
	// branches, disjunctive ON condition, structural sort.
	src := `select 1 as L1, L2, s.suppkey, Q.name, Q.pname
		from Supplier s left outer join
		((select 1 as L2, n.nationkey as nationkey, n.name as name, null as suppkey, null as pname from Nation n)
		 union
		 (select 2 as L2, null as nationkey, null as name, ps.suppkey as suppkey, p.name as pname
		  from PartSupp ps, Part p where ps.partkey = p.partkey)) as Q
		on (L2 = 1 and s.nationkey = Q.nationkey) or (L2 = 2 and s.suppkey = Q.suppkey)
		sort by L1, s.suppkey, L2, Q.nationkey, Q.name, Q.pname`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sel := q.(*sqlast.Select)
	j := sel.From[0].(*sqlast.Join)
	d := j.R.(*sqlast.Derived)
	if _, ok := d.Query.(*sqlast.Union); !ok {
		t.Fatalf("derived query is %T, want Union", d.Query)
	}
	or, ok := j.On.(*sqlast.Or)
	if !ok || len(or.Terms) != 2 {
		t.Fatalf("on condition = %#v", j.On)
	}
	if len(sel.OrderBy) != 6 {
		t.Errorf("order by has %d items", len(sel.OrderBy))
	}
}

func TestParseIsNull(t *testing.T) {
	q, err := Parse("select s.suppkey from Supplier s where s.name is not null and s.addr is null")
	if err != nil {
		t.Fatal(err)
	}
	and := q.(*sqlast.Select).Where.(*sqlast.And)
	if n := and.Terms[0].(*sqlast.IsNull); !n.Negate {
		t.Error("is not null lost negation")
	}
	if n := and.Terms[1].(*sqlast.IsNull); n.Negate {
		t.Error("is null gained negation")
	}
}

func TestParseLiteralKinds(t *testing.T) {
	q, err := Parse("select -5 as a, 2.5 as b, 'it''s' as c, null as d")
	if err != nil {
		t.Fatal(err)
	}
	items := q.(*sqlast.Select).Items
	if v := items[0].Expr.(*sqlast.Literal).Val; v.AsInt() != -5 {
		t.Errorf("int literal = %v", v)
	}
	if v := items[1].Expr.(*sqlast.Literal).Val; v.AsFloat() != 2.5 {
		t.Errorf("float literal = %v", v)
	}
	if v := items[2].Expr.(*sqlast.Literal).Val; v.AsString() != "it's" {
		t.Errorf("string literal = %v", v)
	}
	if v := items[3].Expr.(*sqlast.Literal).Val; !v.IsNull() {
		t.Errorf("null literal = %v", v)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select from t",
		"select a from",
		"select a from t where",
		"select a from t where a =",
		"select a from t where a ! b",
		"select a from (select b from u)",        // derived table without alias
		"select a from t left join u",            // missing on
		"select a from t trailing junk here = 1", // trailing input
		"select 'unterminated from t",            // bad string
		"select a from t where (a = 1",           // unbalanced paren
		"select a as from t",                     // keyword as alias
		"select a from t order by",               // empty order by
		"select a from t where a is b",           // is requires null
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestParseWithErrors holds that WITH is outside the subset, well-formed
// or not.
func TestParseWithErrors(t *testing.T) {
	bad := []string{
		"with select 1 as x",         // missing CTE name
		"with c select 1 as x",       // missing as
		"with c as select 1 as x",    // missing parens
		"with c as (select 1 as x)",  // missing body
		"with c as (select 1 as x),", // dangling comma
		"with c as (select 1 as x) select c.x from c c",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestRoundTripPreservesStructure(t *testing.T) {
	src := "select a.x from A a left outer join (B b inner join C c on b.k = c.k) on a.j = b.j"
	q1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := sqlast.Print(q1)
	q2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of %q: %v", printed, err)
	}
	j1 := q1.(*sqlast.Select).From[0].(*sqlast.Join)
	j2 := q2.(*sqlast.Select).From[0].(*sqlast.Join)
	if _, ok := j1.R.(*sqlast.Join); !ok {
		t.Fatal("first parse lost nested join")
	}
	if _, ok := j2.R.(*sqlast.Join); !ok {
		t.Fatal("reparse flattened the parenthesized nested join")
	}
}

func TestLexerUnicodeAndCase(t *testing.T) {
	q, err := Parse("SELECT S.SuppKey FROM Supplier S WHERE S.Name = 'Ünïcode ✓'")
	if err != nil {
		t.Fatal(err)
	}
	sel := q.(*sqlast.Select)
	lit := sel.Where.(*sqlast.Compare).R.(*sqlast.Literal)
	if lit.Val.AsString() != "Ünïcode ✓" {
		t.Errorf("unicode string mangled: %q", lit.Val.AsString())
	}
}

func TestOutputColumnsUnnamedExpression(t *testing.T) {
	q, err := Parse("select 1, t.a, 2 as two from T t")
	if err != nil {
		t.Fatal(err)
	}
	names := sqlast.OutputColumns(q)
	if names[0] != "" || names[1] != "a" || names[2] != "two" {
		t.Errorf("OutputColumns = %v", names)
	}
}

func TestConjunctsFlattening(t *testing.T) {
	q, err := Parse("select t.a from T t where t.a = 1 and t.b = 2 and (t.c = 3 and t.d = 4)")
	if err != nil {
		t.Fatal(err)
	}
	conj := sqlast.Conjuncts(q.(*sqlast.Select).Where)
	if len(conj) != 4 {
		t.Errorf("Conjuncts = %d terms, want 4", len(conj))
	}
	if sqlast.MakeAnd(nil) != nil {
		t.Error("MakeAnd(nil) != nil")
	}
	single := sqlast.Eq(sqlast.Col("t", "a"), sqlast.IntLit(1))
	if sqlast.MakeAnd([]sqlast.Expr{single}) != single {
		t.Error("MakeAnd of one term should return it unchanged")
	}
}

func TestPrintNullLiteral(t *testing.T) {
	s := &sqlast.Select{Items: []sqlast.SelectItem{{Expr: sqlast.NullLit(), Alias: "x"}}}
	printed := sqlast.Print(s)
	if !strings.Contains(printed, "NULL as x") {
		t.Errorf("Print = %q", printed)
	}
	if _, err := Parse(printed); err != nil {
		t.Errorf("printed null literal does not reparse: %v", err)
	}
}

func TestValueLiteralPrinting(t *testing.T) {
	s := &sqlast.Select{Items: []sqlast.SelectItem{
		{Expr: &sqlast.Literal{Val: value.Float(2.5)}, Alias: "f"},
		{Expr: &sqlast.Literal{Val: value.String("a'b")}, Alias: "s"},
		{Expr: &sqlast.Literal{Val: value.Float(2)}, Alias: "two"},
		{Expr: &sqlast.Literal{Val: value.Float(math.Copysign(0, -1))}, Alias: "negzero"},
	}}
	printed := sqlast.Print(s)
	q, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse %q: %v", printed, err)
	}
	items := q.(*sqlast.Select).Items
	if items[0].Expr.(*sqlast.Literal).Val.AsFloat() != 2.5 {
		t.Error("float literal round trip")
	}
	if items[1].Expr.(*sqlast.Literal).Val.AsString() != "a'b" {
		t.Error("escaped string literal round trip")
	}
	// Integral floats stay floats, and -0 keeps its sign.
	if v := items[2].Expr.(*sqlast.Literal).Val; v.Kind() != value.KindFloat || v.AsFloat() != 2 {
		t.Errorf("float 2 reparsed as %v (%v) from %q", v, v.Kind(), printed)
	}
	if v := items[3].Expr.(*sqlast.Literal).Val; v.Kind() != value.KindFloat || !math.Signbit(v.AsFloat()) {
		t.Errorf("float -0 reparsed as %v (%v) from %q", v, v.Kind(), printed)
	}
}

// TestParseNeverPanics feeds random byte strings and mutations of valid
// SQL into the parser: it must return errors, never panic.
func TestParseNeverPanics(t *testing.T) {
	seeds := []string{
		"select s.suppkey from Supplier s where s.a = 1 order by s.b",
		"(select 1 as L2, null as x from T t) union (select 2 as L2, t.y as x from T t)",
		"select a.x from A a left outer join (select b.y as y from B b) as q on a.x = q.y",
	}
	prop := func(seed uint32, cut uint8, insert string) bool {
		src := seeds[int(seed)%len(seeds)]
		pos := int(cut) % (len(src) + 1)
		mutated := src[:pos] + insert + src[pos:]
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", mutated, r)
			}
		}()
		_, _ = Parse(mutated)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
