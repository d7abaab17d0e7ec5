package sqlexec

// A brute-force reference evaluator for the SQL subset, used to cross-
// validate the optimized executor (hash joins, predicate pushdown, greedy
// join ordering) against the textbook semantics: materialize the full
// cross product of the FROM list, filter with the WHERE clause, project,
// sort. Property tests compare both engines on randomized queries.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"silkroute/internal/schema"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlparse"
	"silkroute/internal/table"
	"silkroute/internal/value"
)

// referenceRun evaluates a query by exhaustive cross products; only the
// constructs the random generator emits are supported.
func referenceRun(cat Catalog, q sqlast.Query) (*Rel, error) {
	switch q := q.(type) {
	case *sqlast.Select:
		return referenceSelect(cat, q)
	case *sqlast.Union:
		var out *Rel
		for i, b := range q.Branches {
			r, err := referenceSelect(cat, b)
			if err != nil {
				return nil, fmt.Errorf("sqlexec: union branch %d: %w", i, err)
			}
			if out == nil {
				out = r
			} else {
				if len(r.Cols) != len(out.Cols) {
					return nil, fmt.Errorf("sqlexec: union branch %d has %d columns, first branch has %d",
						i, len(r.Cols), len(out.Cols))
				}
				out.Rows = append(out.Rows, r.Rows...)
			}
		}
		if err := refSort(out, q.OrderBy, nil); err != nil {
			return nil, err
		}
		return out, nil
	default:
		return nil, fmt.Errorf("reference: %T", q)
	}
}

func referenceSelect(cat Catalog, s *sqlast.Select) (*Rel, error) {
	// Cross product of all FROM entries (base tables and joins only).
	src := &Rel{Rows: []table.Row{{}}}
	for _, te := range s.From {
		r, err := referenceTable(cat, te)
		if err != nil {
			return nil, err
		}
		cross := &Rel{Cols: concatCols(src.Cols, r.Cols)}
		for _, l := range src.Rows {
			for _, rr := range r.Rows {
				cross.Rows = append(cross.Rows, refRow(l, rr))
			}
		}
		src = cross
	}
	if s.Where != nil {
		pred, err := compile(s.Where, src.Cols)
		if err != nil {
			return nil, err
		}
		var kept []table.Row
		for _, row := range src.Rows {
			if isTrue(pred.eval(row)) {
				kept = append(kept, row)
			}
		}
		src.Rows = kept
	}
	out := &Rel{}
	exprs := make([]compiledExpr, len(s.Items))
	for i, item := range s.Items {
		ce, err := compile(item.Expr, src.Cols)
		if err != nil {
			return nil, err
		}
		exprs[i] = ce
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlast.ColumnRef); ok {
				name = cr.Column
			}
		}
		out.Cols = append(out.Cols, Col{Name: name})
	}
	for _, row := range src.Rows {
		prow := make(table.Row, len(exprs))
		for i, e := range exprs {
			prow[i] = e.eval(row)
		}
		out.Rows = append(out.Rows, prow)
	}
	if err := refSort(out, s.OrderBy, src); err != nil {
		return nil, err
	}
	return out, nil
}

func referenceTable(cat Catalog, te sqlast.TableExpr) (*Rel, error) {
	switch te := te.(type) {
	case *sqlast.BaseTable:
		alias := te.Alias
		if alias == "" {
			alias = te.Name
		}
		t, ok := cat.Lookup(te.Name)
		if !ok {
			return nil, fmt.Errorf("reference: no table %s", te.Name)
		}
		cols := make([]Col, len(t.Rel.Columns))
		for i, c := range t.Rel.Columns {
			cols[i] = Col{Qual: alias, Name: c.Name}
		}
		rows := make([]table.Row, t.Len())
		for i := range rows {
			rows[i] = t.Row(i)
		}
		return &Rel{Cols: cols, Rows: rows}, nil
	case *sqlast.Join:
		l, err := referenceTable(cat, te.L)
		if err != nil {
			return nil, err
		}
		r, err := referenceTable(cat, te.R)
		if err != nil {
			return nil, err
		}
		out := &Rel{Cols: concatCols(l.Cols, r.Cols)}
		pred, err := compile(te.On, out.Cols)
		if err != nil {
			return nil, err
		}
		nulls := make(table.Row, len(r.Cols))
		for _, lrow := range l.Rows {
			matched := false
			for _, rrow := range r.Rows {
				combined := refRow(lrow, rrow)
				if isTrue(pred.eval(combined)) {
					out.Rows = append(out.Rows, combined)
					matched = true
				}
			}
			if !matched && te.Kind == sqlast.JoinLeftOuter {
				out.Rows = append(out.Rows, refRow(lrow, nulls))
			}
		}
		return out, nil
	case *sqlast.Derived:
		inner, err := referenceRun(cat, te.Query)
		if err != nil {
			return nil, err
		}
		cols := make([]Col, len(inner.Cols))
		for i, c := range inner.Cols {
			cols[i] = Col{Qual: te.Alias, Name: c.Name}
		}
		return &Rel{Cols: cols, Rows: inner.Rows}, nil
	default:
		return nil, fmt.Errorf("reference: %T", te)
	}
}

// refRow returns l ++ r as a fresh row.
func refRow(l, r table.Row) table.Row {
	return append(append(make(table.Row, 0, len(l)+len(r)), l...), r...)
}

// refSort sorts with the same key resolution rules as the engine, fully
// in memory.
func refSort(out *Rel, order []sqlast.OrderItem, src *Rel) error {
	if len(order) == 0 {
		return nil
	}
	type kf struct {
		ce    compiledExpr
		onSrc bool
	}
	var keys []kf
	for _, it := range order {
		ce, err := compile(it.Expr, out.Cols)
		if err == nil {
			keys = append(keys, kf{ce: ce})
			continue
		}
		if src == nil {
			return fmt.Errorf("sqlexec: order by: %w", err)
		}
		ce, err = compile(it.Expr, src.Cols)
		if err != nil {
			return fmt.Errorf("sqlexec: order by: %w", err)
		}
		keys = append(keys, kf{ce: ce, onSrc: true})
	}
	idx := make([]int, len(out.Rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for _, k := range keys {
			var va, vb value.Value
			if k.onSrc {
				va, vb = k.ce.eval(src.Rows[idx[a]]), k.ce.eval(src.Rows[idx[b]])
			} else {
				va, vb = k.ce.eval(out.Rows[idx[a]]), k.ce.eval(out.Rows[idx[b]])
			}
			if c := value.Compare(va, vb); c != 0 {
				return c < 0
			}
		}
		return false
	})
	sorted := make([]table.Row, len(idx))
	for i, j := range idx {
		sorted[i] = out.Rows[j]
	}
	out.Rows = sorted
	return nil
}

// canonical renders a relation as sorted row strings, so engines that
// produce rows in different (but equally valid) orders under sort-key ties
// still compare equal.
func canonical(r *Rel) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		s := ""
		for _, v := range row {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// chooser is the query generator's source of decisions: a *rand.Rand in
// the randomized test, the fuzz input's bytes in the fuzz target.
type chooser interface{ Intn(n int) int }

// byteChooser decides from fuzz input, one byte per decision; exhausted
// input decides 0, which always ends the query.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

// recorder records another chooser's decisions as bytes, which a
// byteChooser replays into the same query (every decision is below 256).
type recorder struct {
	c chooser
	b []byte
}

func (r *recorder) Intn(n int) int {
	v := r.c.Intn(n)
	r.b = append(r.b, byte(v))
	return v
}

// genTables are the paper catalog's tables as the generator sees them.
var genTables = []struct {
	name, alias string
	cols        []string
}{
	{"Supplier", "s", []string{"suppkey", "name", "addr", "nationkey"}},
	{"Nation", "n", []string{"nationkey", "name", "regionkey"}},
	{"PartSupp", "ps", []string{"partkey", "suppkey", "availqty"}},
	{"Part", "p", []string{"partkey", "name", "retail"}},
}

// genLits are literals that split the paper catalog's keys and quantities
// and fall on or beside genValues' floats. 'USA' stays last: derivedSelect
// compares with the others only.
var genLits = []string{"0", "1", "2", "3", "4", "12", "19", "20", "24", "64", "100", "320", "910",
	"2.0", "2.5", "9007199254740993", "1e18", "'USA'"}

// genValues are the values randomCatalog fills the paper catalog's columns
// with. The first genKeys of them are small keys, NULL among them, so
// joins match and keys repeat; the rest sit at the edges of value.Compare's
// order: strings holding 0x00, 0xFF or "\x00S" and the empty string, ints
// and floats that compare equal or nearly equal, NaN, ±Inf and -0.
var genValues = []value.Value{
	value.Null, value.Int(1), value.Int(2), value.Float(2), value.Int(3), value.String("a"),
	value.Int(0), value.Float(math.Copysign(0, -1)), value.Float(2.5), value.Int(24), value.Int(100),
	value.Int(1 << 53), value.Float(1 << 53), value.Int(1<<53 + 1), value.Int(1e18), value.Float(1e18),
	value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
	value.String(""), value.String("USA"), value.String("a\x00"), value.String("\xff"), value.String("a\xff"),
	value.String("\x00S"), value.String("a\x00Sb"), value.String("b\x00Sc"), value.String("c"),
}

const genKeys = 6

// randomCatalog is the paper catalog with its rows drawn as well: for
// each table, decision 0 keeps the paper's rows, so an exhausted fuzz
// input reads the paper catalog, and n > 0 draws n-1 rows, each value
// one of genKeys half the time and any of genValues otherwise.
func randomCatalog(t testing.TB, c chooser) testCatalog {
	cat := paperCatalog(t)
	for _, g := range genTables {
		name := strings.ToLower(g.name)
		n := c.Intn(7)
		if n == 0 {
			continue
		}
		tb := table.New(cat[name].Rel)
		for ; n > 1; n-- {
			row := make(table.Row, len(g.cols))
			for i := range row {
				if c.Intn(2) == 0 {
					row[i] = genValues[c.Intn(genKeys)]
				} else {
					row[i] = genValues[c.Intn(len(genValues))]
				}
			}
			tb.MustInsert(row...)
		}
		cat[name] = tb
	}
	return cat
}

// genSource is a FROM entry the generator can choose: a stored table or a
// derived table (from is its parenthesized select). alias prefixes the
// aliases it is given.
type genSource struct {
	from, alias string
	cols        []string
}

// randomQuery builds a query over the paper catalog. Mostly it is one
// select (randomSelect) under its ORDER BY. One time in ten it is a
// two-branch UNION under an ORDER BY on output aliases, and one time in
// ten a select that reads one stored table under two aliases, so one row
// set feeds two of the executor's inputs.
func randomQuery(c chooser) string {
	switch c.Intn(10) {
	case 8:
		first, k, _ := randomSelect(c, nil, 0)
		second, _, _ := randomSelect(c, nil, k)
		var order []string
		for n := c.Intn(3) + 1; n > 0; n-- {
			order = append(order, fmt.Sprintf("c%d", c.Intn(k)))
		}
		return first + " union all " + second + " order by " + strings.Join(order, ", ")
	case 9:
		t := genTables[c.Intn(len(genTables))]
		sql, _, order := randomSelect(c, &genSource{from: t.name, alias: t.alias, cols: t.cols}, 0)
		return sql + order
	}
	sql, _, order := randomSelect(c, nil, 0)
	return sql + order
}

// randomSelect builds a select over one to five FROM sources, each a
// table of the paper catalog or, one time in eight, a derived table
// (derivedSelect). With twice set, two of the sources, under different
// aliases, are that source. A source is a comma-join entry or is
// left-outer-joined to the one before it on an equality, possibly a
// disjunction of two, possibly with a literal filter or a cross-source
// non-equi residual; the right side of such a join is sometimes the
// source inner-joined to the next one, in parentheses. The select list reads some of the sources' columns,
// so joins prune the rest, including part of an outer join's right side.
// References are qualified or unqualified, so some are unique and some
// ambiguous. WHERE mixes literal filters, equalities between neighbours
// and cross-source non-equi residuals. items > 0 pads or cuts the select
// list to that many columns, as a union branch after the first needs.
// Besides the select, it returns the select list's length and an ORDER BY
// clause of one to three keys, each an output alias or a source column,
// which a union branch leaves off.
func randomSelect(c chooser, twice *genSource, items int) (string, int, string) {
	ops := []string{"=", "<", ">", "<=", ">=", "<>"}
	n := c.Intn(5) + 1
	if twice != nil {
		n = max(n, 2)
	}
	src := make([]genSource, n)
	for i := range src {
		if c.Intn(8) == 7 {
			body, cols := derivedSelect(c, 1)
			src[i] = genSource{from: "(" + body + ")", alias: "d", cols: cols}
			continue
		}
		t := genTables[c.Intn(len(genTables))]
		src[i] = genSource{from: t.name, alias: t.alias, cols: t.cols}
	}
	if twice != nil {
		a := c.Intn(n)
		src[a] = *twice
		src[(a+1+c.Intn(n-1))%n] = *twice
	}
	aliases := make([]string, n)
	for i := range src {
		aliases[i] = fmt.Sprintf("%s%d", src[i].alias, i)
	}
	col := func(i int) string { return src[i].cols[c.Intn(len(src[i].cols))] }
	qcol := func(i int) string { return aliases[i] + "." + col(i) }
	// A reference to one of source i's columns, unqualified one time in ten.
	anyCol := func(i int) string {
		if c.Intn(10) == 0 {
			return col(i)
		}
		return qcol(i)
	}
	// An equality between sources i and j, on a column name they share
	// (a key, or both sides of a self-join) three times in four.
	eq := func(i, j int) string {
		var shared []string
		for _, a := range src[i].cols {
			if slices.Contains(src[j].cols, a) {
				shared = append(shared, a)
			}
		}
		if len(shared) > 0 && c.Intn(4) != 0 {
			name := shared[c.Intn(len(shared))]
			return aliases[i] + "." + name + " = " + aliases[j] + "." + name
		}
		return qcol(i) + " = " + qcol(j)
	}

	var entries, where, list []string
	nested := -1 // the source inner-joined inside an outer join's parentheses
	for i := range src {
		if i == nested {
			// Already in the entry, on the right of the outer join.
		} else if i > 0 && c.Intn(3) == 0 {
			disjunct := func() string {
				d := eq(i-1, i)
				switch c.Intn(3) {
				case 1:
					d += " and " + qcol(i) + " " + ops[c.Intn(len(ops))] + " " + genLits[c.Intn(len(genLits))]
				case 2:
					d += " and " + qcol(i-1) + " " + ops[1+c.Intn(len(ops)-1)] + " " + qcol(i)
				}
				return d
			}
			on := disjunct()
			if c.Intn(3) == 0 {
				on = "(" + on + ") or (" + disjunct() + ")"
			}
			right := src[i].from + " " + aliases[i]
			if i+1 < n && c.Intn(4) == 0 {
				// A parenthesized join on the right: the outer join pads
				// both of its inputs.
				nested = i + 1
				right = "(" + right + " join " + src[nested].from + " " + aliases[nested] + " on " + eq(i, nested) + ")"
			}
			entries[len(entries)-1] += " left outer join " + right + " on " + on
		} else {
			entries = append(entries, src[i].from+" "+aliases[i])
		}
		if c.Intn(4) != 0 {
			list = append(list, fmt.Sprintf("%s as c%d", anyCol(i), len(list)))
		}
		if c.Intn(3) == 0 {
			where = append(where, anyCol(i)+" "+ops[c.Intn(len(ops))]+" "+genLits[c.Intn(len(genLits))])
		}
		if i > 0 && c.Intn(2) == 0 {
			where = append(where, eq(c.Intn(i), i))
		}
		if i > 0 && c.Intn(4) == 0 {
			where = append(where, qcol(c.Intn(i))+" "+ops[1+c.Intn(len(ops)-1)]+" "+qcol(i))
		}
	}
	if len(list) == 0 {
		list = append(list, qcol(0)+" as c0")
	}
	if items > 0 {
		for len(list) < items {
			list = append(list, fmt.Sprintf("%s as c%d", qcol(c.Intn(n)), len(list)))
		}
		list = list[:items]
	}
	sql := "select " + strings.Join(list, ", ") + " from " + strings.Join(entries, ", ")
	if len(where) > 0 {
		sql += " where " + strings.Join(where, " and ")
	}
	var order []string
	for k := c.Intn(3) + 1; k > 0; k-- {
		switch c.Intn(4) {
		case 0:
			order = append(order, anyCol(c.Intn(n)))
		default:
			order = append(order, fmt.Sprintf("c%d", c.Intn(len(list))))
		}
	}
	return sql, len(list), " order by " + strings.Join(order, ", ")
}

// derivedSelect builds the body of a derived table at nesting depth
// depth (1 for one a select reads directly): one or two sources,
// comma-joined or left-outer-joined on a column, sometimes under a literal
// filter, selecting some of their columns under their own names (each name
// once) so an enclosing query can join on them, and sometimes a literal
// column tag<depth>, as sqlgen's L2 discriminators are. A source is one of
// the paper catalog's tables or, below depth 3, another derived table, as
// the unified plans nest one per view-tree level; so a literal column can
// sit under a left outer join at two levels. One left outer join in three
// selects only its right side's columns and a literal: the left side then
// holds no output column, and every output but the literal is NULL on the
// rows the join pads. It returns the select and its column names.
func derivedSelect(c chooser, depth int) (string, []string) {
	type tab struct {
		alias string
		cols  []string
	}
	source := func(alias string) (string, tab) {
		if depth < 3 && c.Intn(3) == 2 {
			body, cols := derivedSelect(c, depth+1)
			return "(" + body + ") " + alias, tab{alias, cols}
		}
		t := genTables[c.Intn(len(genTables))]
		return t.name + " " + alias, tab{alias, t.cols}
	}
	from, x := source("x")
	tabs := []tab{x}
	var where []string
	rightOnly := false
	if c.Intn(2) == 1 {
		entry, y := source("y")
		tabs = append(tabs, y)
		on := "x." + x.cols[0] + " = y." + y.cols[0]
		for _, name := range x.cols {
			if slices.Contains(y.cols, name) {
				on = "x." + name + " = y." + name
				break
			}
		}
		if c.Intn(2) == 0 {
			from += ", " + entry
			where = append(where, on)
		} else {
			from += " left outer join " + entry + " on " + on
			rightOnly = c.Intn(3) == 2
		}
	}
	if c.Intn(2) == 1 {
		tb := tabs[c.Intn(len(tabs))]
		where = append(where, tb.alias+"."+tb.cols[c.Intn(len(tb.cols))]+" >= "+genLits[c.Intn(len(genLits)-1)])
	}
	var list, names []string
	pick := tabs
	if rightOnly {
		pick = tabs[1:]
	}
	for _, tb := range pick {
		for _, name := range tb.cols {
			if c.Intn(2) == 1 && !slices.Contains(names, name) {
				list = append(list, tb.alias+"."+name+" as "+name)
				names = append(names, name)
			}
		}
	}
	if len(names) == 0 {
		tb := pick[0]
		list, names = []string{tb.alias + "." + tb.cols[0] + " as " + tb.cols[0]}, []string{tb.cols[0]}
	}
	if rightOnly || c.Intn(4) == 0 {
		tag := fmt.Sprintf("tag%d", depth)
		list = append(list, genLits[c.Intn(len(genLits))]+" as "+tag)
		names = append(names, tag)
	}
	sql := "select " + strings.Join(list, ", ") + " from " + from
	if len(where) > 0 {
		sql += " where " + strings.Join(where, " and ")
	}
	return sql, names
}

// errKey is an error's text without the pair of columns an ambiguity
// names: which two of the matching columns are reported depends on the
// order the relations were joined in, which the reference does not model.
func errKey(err error) string {
	s := err.Error()
	if i := strings.Index(s, " (matches "); i >= 0 {
		return s[:i]
	}
	return s
}

// readRows opens q and reads its result row by row, copying each row: a
// row is valid only until the next call.
func readRows(cat Catalog, q sqlast.Query) ([]table.Row, error) {
	res, err := Open(context.Background(), cat, q)
	if err != nil {
		return nil, err
	}
	var rows []table.Row
	for row, ok := res.Next(); ok; row, ok = res.Next() {
		rows = append(rows, row.Clone())
	}
	if len(rows) != res.Len() {
		return nil, fmt.Errorf("read %d rows of a result of %d", len(rows), res.Len())
	}
	return rows, nil
}

// checkAgainstReference runs src through the executor and the reference:
// both must fail alike or return the same rows, in the same ORDER BY key
// sequence. The executor must also return the same as it does unlimited
// under sort budgets of 1 and 7 rows, and at every budget its result read
// row by row must be the rows RunContext stores, in their order.
func checkAgainstReference(t *testing.T, cat Catalog, src string) {
	t.Helper()
	q, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatalf("generated unparseable SQL %q: %v", src, err)
	}
	got, gerr := RunContext(context.Background(), cat, q)
	// Sorts that spill at every run size must change nothing: the same
	// rows in the same order, or the same error.
	for _, budget := range []int{0, 1, 7} {
		bcat := budgetCatalog{cat, budget}
		spilled, serr := RunContext(context.Background(), bcat, q)
		if (serr == nil) != (gerr == nil) || serr != nil && serr.Error() != gerr.Error() {
			t.Fatalf("on %q at sort budget %d: error %v, unlimited %v", src, budget, serr, gerr)
		}
		if serr == nil && !sameRows(spilled.Rows, got.Rows) {
			t.Fatalf("on %q at sort budget %d: rows differ from the unlimited run", src, budget)
		}
		read, rerr := readRows(bcat, q)
		if (rerr == nil) != (gerr == nil) || rerr != nil && rerr.Error() != gerr.Error() {
			t.Fatalf("on %q at sort budget %d: reading the result: error %v, unlimited %v", src, budget, rerr, gerr)
		}
		if rerr == nil && !sameRows(read, got.Rows) {
			t.Fatalf("on %q at sort budget %d: the result read row by row differs from the stored rows", src, budget)
		}
	}
	want, werr := referenceRun(cat, q)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("on %q: executor error %v, reference error %v", src, gerr, werr)
	}
	if gerr != nil {
		if errKey(gerr) != errKey(werr) {
			t.Fatalf("on %q: executor error %q, reference error %q", src, gerr, werr)
		}
		return
	}
	g, w := canonical(got), canonical(want)
	if len(g) != len(w) {
		t.Fatalf("row count mismatch on %q: got %d, want %d", src, len(g), len(w))
	}
	for j := range g {
		if g[j] != w[j] {
			t.Fatalf("row %d mismatch on %q:\n got %s\nwant %s", j, src, g[j], w[j])
		}
	}
	// Rows tied on every key may come out in either order, but the key
	// sequence is fixed; compare it on the keys that are output columns.
	for _, it := range orderBy(q) {
		ce, err := compile(it.Expr, got.Cols)
		if err != nil {
			continue
		}
		for j := range got.Rows {
			if gv, wv := ce.eval(got.Rows[j]), ce.eval(want.Rows[j]); !value.Identical(gv, wv) {
				t.Fatalf("order mismatch on %q at row %d: got key %s, want %s", src, j, gv, wv)
			}
		}
	}
}

// orderBy returns the ORDER BY that decides a query's output order.
func orderBy(q sqlast.Query) []sqlast.OrderItem {
	switch q := q.(type) {
	case *sqlast.Select:
		return q.OrderBy
	case *sqlast.Union:
		return q.OrderBy
	}
	return nil
}

// differentialSeed drives TestExecutorMatchesReferenceOnRandomQueries; the
// decisions behind its first queries seed FuzzExecutorMatchesReference.
const differentialSeed = 2001

func TestExecutorMatchesReferenceOnRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(differentialSeed))
	for i := 0; i < 600; i++ {
		checkAgainstReference(t, randomCatalog(t, rng), randomQuery(rng))
	}
}

// FuzzExecutorMatchesReference derives a catalog and a query from the fuzz
// input through randomCatalog's and randomQuery's decisions and checks the
// executor against the reference.
func FuzzExecutorMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(differentialSeed))
	for i := 0; i < 32; i++ {
		rec := &recorder{c: rng}
		randomCatalog(f, rec)
		randomQuery(rec)
		f.Add(rec.b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteChooser{b: data}
		checkAgainstReference(t, randomCatalog(t, c), randomQuery(c))
	})
}

// TestJoinKeysMatchReference: equality joins that an ambiguous or inexact
// join key once got wrong, each checked against the reference and its row
// count: composite string keys whose bytes run together, NaN against an
// int, an int that rounds to a float it does not equal, and an int equal
// to a large float.
func TestJoinKeysMatchReference(t *testing.T) {
	s := schema.New()
	rel := func(name string) *schema.Relation {
		return s.MustAddRelation(name, []string{"x"}, schema.Column{Name: "x"}, schema.Column{Name: "y"})
	}
	ra, rb := rel("A"), rel("B")
	zero := value.Int(0)
	cases := []struct {
		name string
		a, b table.Row
		rows int
	}{
		{"strings holding 0x00 S", table.Row{value.String("a\x00Sb"), value.String("c")},
			table.Row{value.String("a"), value.String("b\x00Sc")}, 0},
		{"NaN against an int", table.Row{value.Float(math.NaN()), zero}, table.Row{value.Int(5), zero}, 0},
		{"float 2^53 against int 2^53+1", table.Row{value.Float(1 << 53), zero}, table.Row{value.Int(1<<53 + 1), zero}, 0},
		{"1e18 as a float and an int", table.Row{value.Float(1e18), zero}, table.Row{value.Int(1e18), zero}, 1},
	}
	const src = "select A.x, B.x from A, B where A.x = B.x and A.y = B.y"
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ta, tb := table.New(ra), table.New(rb)
			ta.MustInsert(tc.a...)
			tb.MustInsert(tc.b...)
			cat := testCatalog{"a": ta, "b": tb}
			checkAgainstReference(t, cat, src)
			if got := len(run(t, cat, src).Rows); got != tc.rows {
				t.Errorf("%d rows, want %d", got, tc.rows)
			}
		})
	}
}

// TestHashJoinChains checks the hash join's table against the reference
// and against a brute-force match list: a build side so small that
// distinct keys share a bucket (and a probe key in that bucket matching
// none of them), duplicate build keys, NULL keys on both sides, and ints
// beside equal floats, -0 and NaNs of two payloads. Every case runs as an
// inner and a left outer join, and each left row's matches must be
// exactly the right rows whose keys equal its own, in ascending order.
func TestHashJoinChains(t *testing.T) {
	// Four distinct ints in one bucket of the 4-bucket table a 3-row build
	// side gets.
	var shared []value.Value
	bucket := func(v value.Value) uint64 { h, _ := value.Hash(v, 0); return h & 3 }
	for i := int64(0); len(shared) < 4; i++ {
		if bucket(value.Int(i)) == bucket(value.Int(0)) {
			shared = append(shared, value.Int(i))
		}
	}
	ints := func(xs ...int64) []value.Value {
		vs := make([]value.Value, len(xs))
		for i, x := range xs {
			vs[i] = value.Int(x)
		}
		return vs
	}
	nan, null := value.Float(math.NaN()), value.Null
	cases := []struct {
		name        string
		left, right []value.Value // the join key column of A and of B
	}{
		{"distinct keys in one bucket", shared, shared[:3]},
		{"one build row", ints(1, 2, 1), ints(1)},
		{"duplicate build keys", ints(1, 2, 3, 4, 1), ints(1, 2, 1, 1, 2, 3)},
		{"NULL keys on both sides", []value.Value{null, value.Int(1), null}, []value.Value{null, value.Int(1), null, value.Int(1)}},
		{"int, float and NaN keys",
			[]value.Value{value.Float(2), value.Int(0), nan, value.Float(2.5), value.Float(0), value.Int(3)},
			[]value.Value{value.Int(2), value.Float(2), value.Float(math.Copysign(0, -1)), nan, value.Float(2.5),
				value.Int(0), value.Float(math.Float64frombits(0xfff0000000000abc)), value.Float(3.5)}},
		{"empty build side", ints(1, 2), nil},
	}
	s := schema.New()
	rel := func(name string) *schema.Relation {
		return s.MustAddRelation(name, []string{"y"}, schema.Column{Name: "x"}, schema.Column{Name: "y"})
	}
	ra, rb := rel("A"), rel("B")
	on := &sqlast.Compare{Op: sqlast.OpEq,
		L: &sqlast.ColumnRef{Table: "A", Column: "x"}, R: &sqlast.ColumnRef{Table: "B", Column: "x"}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ta, tb := table.New(ra), table.New(rb)
			for i, v := range tc.left {
				ta.MustInsert(v, value.Int(int64(i)))
			}
			for i, v := range tc.right {
				tb.MustInsert(v, value.Int(int64(i)))
			}
			cat := testCatalog{"a": ta, "b": tb}
			checkAgainstReference(t, cat, "select A.y, B.y from A, B where A.x = B.x order by A.y, B.y")
			checkAgainstReference(t, cat, "select A.y, B.y from A left outer join B on A.x = B.x order by A.y, B.y")

			l := scan([]Col{{"A", "x"}, {"A", "y"}}, input{cols: ta.Columns()}, ta.Len())
			r := scan([]Col{{"B", "x"}, {"B", "y"}}, input{cols: tb.Columns()}, tb.Len())
			m, err := joinMatches(context.Background(), l, r, on)
			if err != nil {
				t.Fatal(err)
			}
			for li, lv := range tc.left {
				var want []int32
				for ri, rv := range tc.right {
					if value.Equal(lv, rv) {
						want = append(want, int32(ri))
					}
				}
				if got := m.right[m.off[li]:m.off[li+1]]; !slices.Equal(got, want) {
					t.Errorf("left row %d (%v) matches right rows %v, want %v", li, lv, got, want)
				}
			}
		})
	}
}

// TestExecutorMatchesReferenceOnOuterJoins left-outer-joins a derived
// table that nests another, as the unified plans do: literal columns at
// both levels read as NULL on the rows the outer join pads.
func TestExecutorMatchesReferenceOnOuterJoins(t *testing.T) {
	cat := paperCatalog(t)
	rng := rand.New(rand.NewSource(77))
	ops := []string{"=", "<", ">"}
	for i := 0; i < 100; i++ {
		onOp := ops[rng.Intn(len(ops))]
		checkAgainstReference(t, cat, fmt.Sprintf(`select s.suppkey as a, q.pk as b, q.tag as t, q.L as l from Supplier s
			left outer join (select q0.sk as sk, q0.pk as pk, q0.tag as tag, 4 as L from
			                 (select ps.suppkey as sk, ps.partkey as pk, 7 as tag from PartSupp ps
			                  where ps.availqty %s %d) as q0) as q
			on s.suppkey %s q.sk
			order by a, b`, ops[rng.Intn(len(ops))], rng.Intn(400), onOp))
	}
}
