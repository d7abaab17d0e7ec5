package rxl

import (
	"testing"
	"testing/quick"

	"silkroute/internal/sqlast"
	"silkroute/internal/value"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return q
}

func TestParseMinimal(t *testing.T) {
	q := mustParse(t, `from Supplier $s construct <supplier><name>$s.name</name></supplier>`)
	if len(q.Blocks) != 1 {
		t.Fatalf("blocks = %d", len(q.Blocks))
	}
	b := q.Blocks[0]
	if len(b.From) != 1 || b.From[0].Table != "Supplier" || b.From[0].Var != "s" {
		t.Errorf("from = %+v", b.From)
	}
	if b.Construct.Tag != "supplier" {
		t.Errorf("tag = %q", b.Construct.Tag)
	}
	name, ok := b.Construct.Content[0].(*Element)
	if !ok || name.Tag != "name" {
		t.Fatalf("first child = %#v", b.Construct.Content[0])
	}
	text, ok := name.Content[0].(*Text)
	if !ok || text.Expr.Var != "s" || text.Expr.Field != "name" {
		t.Errorf("text = %#v", name.Content[0])
	}
}

func TestParseWhereCommaAndAnd(t *testing.T) {
	q := mustParse(t, `from A $a, B $b
		where $a.x = $b.y, $a.z > 3 and $b.w <> 'q'
		construct <r>$a.x</r>`)
	b := q.Blocks[0]
	if len(b.From) != 2 {
		t.Fatalf("from = %+v", b.From)
	}
	if len(b.Where) != 3 {
		t.Fatalf("where = %d conditions", len(b.Where))
	}
	if b.Where[0].Op != sqlast.OpEq || b.Where[1].Op != sqlast.OpGt || b.Where[2].Op != sqlast.OpNe {
		t.Errorf("ops = %v %v %v", b.Where[0].Op, b.Where[1].Op, b.Where[2].Op)
	}
	if !b.Where[1].R.IsConst || b.Where[1].R.Const.AsInt() != 3 {
		t.Errorf("const operand = %+v", b.Where[1].R)
	}
	if b.Where[2].R.Const.AsString() != "q" {
		t.Errorf("string operand = %+v", b.Where[2].R)
	}
}

func TestParseNestedAndParallelBlocks(t *testing.T) {
	q := mustParse(t, FragmentSource)
	b := q.Blocks[0]
	if len(b.Construct.Content) != 2 {
		t.Fatalf("supplier has %d children", len(b.Construct.Content))
	}
	for i, c := range b.Construct.Content {
		n, ok := c.(*Nested)
		if !ok {
			t.Fatalf("child %d is %#v, want Nested", i, c)
		}
		if n.Block.Construct == nil {
			t.Fatalf("nested block %d has no construct", i)
		}
	}
	nation := b.Construct.Content[0].(*Nested).Block
	if nation.Construct.Tag != "nation" || len(nation.Where) != 1 {
		t.Errorf("nation block = %+v", nation)
	}
}

func TestParsePaperQueries(t *testing.T) {
	for name, src := range map[string]string{"Query1": Query1Source, "Query2": Query2Source} {
		q := mustParse(t, src)
		b := q.Blocks[0]
		if b.Construct.Tag != "supplier" {
			t.Errorf("%s root = %q", name, b.Construct.Tag)
		}
		// Count view-tree nodes: both queries have 10 (9 edges, 512 plans).
		var count func(e *Element) int
		count = func(e *Element) int {
			n := 1
			for _, c := range e.Content {
				switch c := c.(type) {
				case *Element:
					n += count(c)
				case *Nested:
					n += count(c.Block.Construct)
				}
			}
			return n
		}
		if got := count(b.Construct); got != 10 {
			t.Errorf("%s has %d template elements, want 10", name, got)
		}
	}
}

func TestParseExplicitSkolem(t *testing.T) {
	q := mustParse(t, `from Supplier $s construct <supplier @Supp($s.suppkey)><x/></supplier>`)
	sk := q.Blocks[0].Construct.Skolem
	if sk == nil || sk.Name != "Supp" || len(sk.Args) != 1 || sk.Args[0].Field != "suppkey" {
		t.Fatalf("skolem = %#v", sk)
	}
	child := q.Blocks[0].Construct.Content[0].(*Element)
	if child.Tag != "x" || len(child.Content) != 0 {
		t.Errorf("self-closing child = %#v", child)
	}
}

func TestParseZeroArgSkolem(t *testing.T) {
	q := mustParse(t, `construct <root @R()><a/></root>`)
	sk := q.Blocks[0].Construct.Skolem
	if sk == nil || sk.Name != "R" || len(sk.Args) != 0 {
		t.Fatalf("skolem = %#v", sk)
	}
	if len(q.Blocks[0].From) != 0 {
		t.Error("from should be empty")
	}
}

func TestParseStringAndNumberText(t *testing.T) {
	q := mustParse(t, `from T $t construct <r>"lit" 42 $t.x</r>`)
	content := q.Blocks[0].Construct.Content
	if len(content) != 3 {
		t.Fatalf("content = %d items", len(content))
	}
	if txt := content[0].(*Text); !txt.Expr.IsConst || txt.Expr.Const.AsString() != "lit" {
		t.Errorf("string text = %+v", txt.Expr)
	}
	if txt := content[1].(*Text); txt.Expr.Const.Kind() != value.KindInt {
		t.Errorf("number text = %+v", txt.Expr)
	}
}

// BadSources are malformed queries every one of which Parse rejects.
// FuzzParseRXL seeds its corpus with them.
var BadSources = []string{
	"",
	"from construct <a/>",                      // missing binding
	"from T t construct <a/>",                  // missing $
	"from T $t",                                // no construct
	"from T $t construct <a>",                  // unterminated element
	"from T $t construct <a></b>",              // mismatched tags
	"from T $t where construct <a/>",           // empty where
	"from T $t where $t.x construct <a/>",      // incomplete condition
	"from T $t where $t = 3 construct <a/>",    // var without field
	"from T $t construct <a>{ from U $u }</a>", // nested without construct
	"from T $t construct <a @S</a>",            // broken skolem
	"from T $t construct <a>$</a>",             // bare dollar
	`from T $t construct <a>"unterminated</a>`, // unterminated string
}

func TestParseErrors(t *testing.T) {
	for _, src := range BadSources {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseParallelTopLevelBlocks(t *testing.T) {
	q := mustParse(t, `from A $a construct <x>$a.v</x>
		from B $b construct <y>$b.w</y>`)
	if len(q.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(q.Blocks))
	}
	if q.Blocks[0].Construct.Tag != "x" || q.Blocks[1].Construct.Tag != "y" {
		t.Error("parallel block tags wrong")
	}
}

func TestOperandHelpers(t *testing.T) {
	f := FieldRef("s", "name")
	if f.IsConst || f.Var != "s" || f.Field != "name" {
		t.Errorf("FieldRef = %+v", f)
	}
	c := ConstOp(value.Int(3))
	if !c.IsConst || c.Const.AsInt() != 3 {
		t.Errorf("ConstOp = %+v", c)
	}
}

// TestCompareOpStrings: every RXL comparison operator parses to the SQL
// operator of the same spelling.
func TestCompareOpStrings(t *testing.T) {
	for _, want := range []sqlast.CompareOp{sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe} {
		q := mustParse(t, "from T $t where $t.a "+want.String()+" 1 construct <r>$t.a</r>")
		if got := q.Blocks[0].Where[0].Op; got != want {
			t.Errorf("%q parsed to %q", want, got)
		}
	}
}

// TestParseNeverPanics mutates valid RXL and random noise through the
// parser: errors are fine, panics are not.
// GoodSources are well-formed queries TestParseNeverPanics mutates.
// FuzzParseRXL seeds its corpus with them.
var GoodSources = []string{Query1Source, Query2Source, FragmentSource,
	`from T $t where $t.a = 'x' construct <r @F($t.a)>$t.b "lit" 42<s/></r>`}

func TestParseNeverPanics(t *testing.T) {
	prop := func(seed uint32, cut uint8, insert string) bool {
		src := GoodSources[int(seed)%len(GoodSources)]
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
