// Package sqlexec executes the SQL subset against in-memory tables.
//
// The executor materializes intermediate results rather than pipelining.
// That is a faithful model of the paper's setting: every query SilkRoute
// generates ends in the structural ORDER BY, and a sort forces the server
// to consume its whole input before emitting the first row — which is
// exactly why the paper's "query-only time" (time to first tuple) tracks
// full server-side execution time.
//
// Like any real back end it keeps intermediate results narrow and their
// allocation per operator, not per row:
//
//   - Late materialisation. Inside one SELECT, the FROM and WHERE work on
//     row-ID relations (rel). An input of one is a row set that is already
//     materialised: a base table or a derived table. A row of the
//     relation is one int32 row index per input, -1 on the side a left
//     outer join padded with NULLs. A scan is its input with no ID list; a
//     filter keeps a list of IDs; a join builds its ID columns from its
//     (left, right) match list, all carved from one allocation. Its width
//     is its number of inputs, not of columns. Keys, predicates and ON
//     residuals read values through an (input, row, column) accessor, and
//     values are copied exactly once: into the projection, which the final
//     sort then orders.
//   - Column pruning. A join exposes only the columns that a reference
//     still to be evaluated can resolve to: the select list, the ORDER BY,
//     the WHERE conjuncts not yet applied and an enclosing ON. Pruning
//     keeps every column a reference matches by name and qualifier, so
//     resolution — and its unknown- and ambiguous-column errors — is the
//     same as over the unpruned relation. An input none of whose columns
//     is exposed drops out of the join's result.
//   - One sort, by column position. An ORDER BY key that is not an output
//     column is a hidden column the projection fills after the output
//     columns and the select trims after the sort. Rows are sorted in
//     place, or spilled whole and merged back by their key columns.
//
// Base tables and derived tables are read in place, never copied.
package sqlexec

import (
	"fmt"
	"slices"
	"strings"

	"silkroute/internal/sqlast"
	"silkroute/internal/table"
	"silkroute/internal/value"
)

// Catalog resolves base-table names. The engine implements it; the
// indirection keeps sqlexec independent of the catalog's representation.
type Catalog interface {
	Lookup(name string) (*table.Table, bool)
}

// Col is one column of an intermediate relation: an optional qualifier
// (table alias) and a name.
type Col struct {
	Qual string
	Name string
}

// String renders the column for error messages.
func (c Col) String() string {
	if c.Qual == "" {
		return c.Name
	}
	return c.Qual + "." + c.Name
}

// Rel is a materialized relation: a query's result, which is also what a
// derived table is read from.
type Rel struct {
	Cols []Col
	Rows []table.Row
}

// matches reports whether the reference (qual, name) can resolve to c:
// named columns only, names compared case-insensitively, and the
// qualifier too when the reference has one.
func (c Col) matches(qual, name string) bool {
	return c.Name != "" && strings.EqualFold(c.Name, name) &&
		(qual == "" || strings.EqualFold(c.Qual, qual))
}

// resolve finds the index of the column referenced by (qual, name).
// Qualified references must match both parts; unqualified references must
// match a unique column name. Columns with empty names (unnamed
// expressions) are never matched.
func resolve(cols []Col, qual, name string) (int, error) {
	found := -1
	for i, c := range cols {
		if !c.matches(qual, name) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sqlexec: ambiguous column reference %q (matches %s and %s)",
				ref(qual, name), cols[found], c)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sqlexec: unknown column %q", ref(qual, name))
	}
	return found, nil
}

func ref(qual, name string) string {
	if qual == "" {
		return name
	}
	return qual + "." + name
}

// concatCols returns the column list of a join result.
func concatCols(l, r []Col) []Col {
	out := make([]Col, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// keepCol reports whether some reference in need can resolve to c. A
// join keeps every column a reference matches, so resolving it against the
// kept columns finds the same column or reports the same ambiguity as
// against all of them.
func keepCol(c Col, need []*sqlast.ColumnRef) bool {
	for _, cr := range need {
		if c.matches(cr.Table, cr.Column) {
			return true
		}
	}
	return false
}

// rel is a row-ID relation: a SELECT's FROM and WHERE before projection.
// Its row i reads column k from row ins[in].id(i) of that input's stored
// rows, where (in, col) = source(k).
type rel struct {
	cols []Col    // the columns a reference can resolve to
	src  []colSrc // where each column's values live; nil: a scan's layout
	ins  []input
	n    int      // the row count
	one  [1]input // ins of a one-input relation, in the same allocation
}

// colSrc locates a column of a rel: column col of input in.
type colSrc struct{ in, col int }

// input is one materialised row set a rel reads.
type input struct {
	rows []table.Row
	// ids[i] is the index in rows of the relation's row i, or -1 where a
	// left outer join padded this input with NULLs. Nil means i itself:
	// an unfiltered scan.
	ids []int32
}

// id returns the stored row behind the relation's row i, or -1.
func (in *input) id(i int) int32 {
	if in.ids == nil {
		return int32(i)
	}
	return in.ids[i]
}

// oneInput returns a relation over the single input in, with the columns
// cols laid out as src says.
func oneInput(cols []Col, src []colSrc, in input, n int) *rel {
	x := &rel{cols: cols, src: src, n: n}
	x.one[0] = in
	x.ins = x.one[:]
	return x
}

// scan returns the relation over rows, read in place, with columns cols:
// column k is column k of every row.
func scan(cols []Col, rows []table.Row) *rel {
	return oneInput(cols, nil, input{rows: rows}, len(rows))
}

// source returns where column k's values live.
func (x *rel) source(k int) colSrc {
	if x.src == nil {
		return colSrc{col: k}
	}
	return x.src[k]
}

// at returns the value of column k in row i.
func (x *rel) at(i, k int) value.Value {
	s := x.source(k)
	in := &x.ins[s.in]
	id := in.id(i)
	if id < 0 {
		return value.Null
	}
	return in.rows[id][s.col]
}

// rowExpr evaluates an expression over the rows of row-ID relations. It
// resolves against a layout: the columns of a relation l, then those of r
// when it reads a pair of rows (an ON residual) rather than one. A bare
// column is read directly. Any other expression is compiled against a
// narrow layout of just the columns it reads, which are copied per row
// into one scratch row. Nothing is allocated per row.
type rowExpr struct {
	nl    int          // layout columns below nl are l's, the rest r's
	bare  int          // the layout column a bare column reference reads, else -1
	expr  compiledExpr // over row, when not bare
	reads []int        // the layout column behind each column of row
	row   table.Row    // scratch
}

// bind binds expr to the layout cols, whose first nl columns are l's.
// Resolution, and its errors, are those of compiling expr against cols.
func bind(expr sqlast.Expr, cols []Col, nl int) (rowExpr, error) {
	ce, err := compile(expr, cols)
	if err != nil {
		return rowExpr{}, err
	}
	if c, ok := ce.(colExpr); ok {
		return rowExpr{nl: nl, bare: c.idx}, nil
	}
	var reads []int
	var narrow []Col
	for _, cr := range sqlast.ColumnRefs(expr, nil) {
		k, _ := resolve(cols, cr.Table, cr.Column)
		if !slices.Contains(reads, k) {
			reads = append(reads, k)
			narrow = append(narrow, cols[k])
		}
	}
	// Every reference matches the same one column of narrow as of cols, so
	// this compiles, to the same columns.
	ce, err = compile(expr, narrow)
	if err != nil {
		return rowExpr{}, err
	}
	return rowExpr{nl: nl, bare: -1, expr: ce, reads: reads, row: make(table.Row, len(reads))}, nil
}

// eval evaluates the expression on row li of l and, for a pair layout,
// row ri of r.
func (e *rowExpr) eval(l *rel, li int, r *rel, ri int) value.Value {
	if e.bare >= 0 {
		return pairAt(l, li, r, ri, e.nl, e.bare)
	}
	for j, c := range e.reads {
		e.row[j] = pairAt(l, li, r, ri, e.nl, c)
	}
	return e.expr.eval(e.row)
}

// pairAt returns layout column c of the pair (row li of l, row ri of r).
func pairAt(l *rel, li int, r *rel, ri, nl, c int) value.Value {
	if c < nl {
		return l.at(li, c)
	}
	return r.at(ri, c-nl)
}
