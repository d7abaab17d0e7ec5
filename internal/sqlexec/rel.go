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
//   - Column pruning. A join emits only the columns that a reference still
//     to be evaluated can resolve to: the select list, the ORDER BY, the
//     WHERE conjuncts not yet applied and an enclosing ON. Pruning keeps
//     every column a reference matches by name and qualifier, so
//     resolution — and its unknown- and ambiguous-column errors — is the
//     same as over the unpruned relation.
//   - One slab per operator. A join first collects its matches as flat
//     offset + right-index arrays, so it knows its row count before
//     emitting; its rows, like a projection's, are then carved from one
//     value array.
//   - In-place sort. When every ORDER BY key is an output column (the
//     structural sort always is), rows are sorted in place by column
//     index; only expressions, keys on pre-projection columns and spilling
//     sorts materialize a key slab.
//
// Base tables, CTEs and derived tables are scanned in place, never copied.
package sqlexec

import (
	"fmt"
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

// Rel is a materialized intermediate relation.
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

// keepCols returns, in order, the indices of the columns of cols that some
// reference in need can resolve to. Every column a reference matches is
// kept, so resolving it against the kept columns finds the same column or
// reports the same ambiguity as against all of them.
func keepCols(cols []Col, need []*sqlast.ColumnRef) []int {
	keep := make([]int, 0, len(cols))
	for i, c := range cols {
		for _, cr := range need {
			if c.matches(cr.Table, cr.Column) {
				keep = append(keep, i)
				break
			}
		}
	}
	return keep
}

// slabRows returns n rows of width w carved from one value array. Each row
// is capped at its width, so appending to one can never overwrite the next.
func slabRows(n, w int) []table.Row {
	slab := make([]value.Value, n*w)
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}
