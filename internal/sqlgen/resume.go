package sqlgen

// Mid-stream resume queries. Every generated query is sorted by the
// structural key L1, V(1,*), L2, V(2,*), … — the property that lets the
// tagger merge streams in constant space. The same sortedness makes a
// broken stream cheap to recover: instead of re-running the query from
// scratch, the suffix at/after the last fully delivered row is exactly
//
//	select <cols> from (<body>) as rsm
//	where (k1,…,kn) >= (v1,…,vn)   -- lexicographically
//	order by k1, …, kn
//
// with (v1,…,vn) the boundary row's sort-key values. The predicate is >=
// rather than > because SQL bag semantics allow several rows with an equal
// full key (they are then byte-identical rows); the consumer re-delivers
// none of them by skipping as many boundary-key rows as it already handed
// out.

import (
	"fmt"

	"silkroute/internal/sqlast"
	"silkroute/internal/sqlparse"
	"silkroute/internal/value"
)

// resumeAlias names the derived table a resume query wraps the original
// body in. Generated aliases are b/q/c/u + counter, so it never collides.
const resumeAlias = "rsm"

// SortKey returns the output-row positions of the stream's structural sort
// key, in ORDER BY order. It is empty for a constant key.
func (s *Stream) SortKey() []int { return s.sortKey }

// Resumable reports whether the stream carries its structural sort order,
// so a died stream can be resumed from its last delivered key. It is true
// even for streams whose sort key is empty (a constant key: resume re-runs
// the query and skips the delivered prefix).
func (s *Stream) Resumable() bool { return s.sortKey != nil }

// ResumeSQL builds the SQL that resumes this stream at/after the given
// boundary: the sort-key values of the last fully delivered row, in SortKey
// order. The resumed query keeps the original's column names, positions,
// and ordering, so the consumer can splice its rows onto the prefix it
// already delivered. A nil/empty key means no row was delivered yet and the
// original SQL is returned verbatim.
//
// Key values may be NULL: NULLs sort before every value in this engine, so
// a NULL boundary component compares with IS NULL / IS NOT NULL instead of
// =/>.
//
// The body it wraps is the stream's query printed and parsed back, without
// its ORDER BY. Generation prints nothing ahead of time: a greedy search
// generates dozens of candidate queries, and only a stream that dies
// mid-way is ever resumed.
func (s *Stream) ResumeSQL(key []value.Value) (string, error) {
	if len(key) == 0 {
		return s.SQL(), nil
	}
	if len(key) != len(s.sortKey) {
		return "", fmt.Errorf("sqlgen: resume key has %d values, sort key has %d columns", len(key), len(s.sortKey))
	}
	// Reparse the printed query and drop the fresh tree's ORDER BY: the
	// SQL grammar forbids one inside a derived table. Print output is
	// guaranteed to parse back to an equivalent tree, and a fresh tree
	// keeps the stream's own Query untouched by the wrapper below.
	body, err := sqlparse.Parse(s.SQL())
	if err != nil {
		return "", fmt.Errorf("sqlgen: reparse stream query: %w", err)
	}
	switch b := body.(type) {
	case *sqlast.Select:
		b.OrderBy = nil
	case *sqlast.Union:
		b.OrderBy = nil
	}

	sel := &sqlast.Select{From: []sqlast.TableExpr{&sqlast.Derived{Query: body, Alias: resumeAlias}}}
	keyNames := make([]string, len(s.sortKey))
	for i, p := range s.sortKey {
		keyNames[i] = s.Cols[p].Name
	}
	for _, c := range s.Cols {
		if c.Name == "" {
			return "", fmt.Errorf("sqlgen: stream has an unnamed output column; cannot resume")
		}
		sel.Items = append(sel.Items, sqlast.SelectItem{Expr: sqlast.Col(resumeAlias, c.Name), Alias: c.Name})
	}
	sel.Where = resumePredicate(resumeAlias, keyNames, key)
	for _, n := range keyNames {
		sel.OrderBy = append(sel.OrderBy, sqlast.OrderItem{Expr: &sqlast.ColumnRef{Column: n}})
	}
	return sqlast.Print(sel), nil
}

// resumePredicate builds the lexicographic (k1,…,kn) >= (v1,…,vn) row-value
// comparison as the expanded disjunction
//
//	k1 > v1
//	or (k1 = v1 and k2 > v2)
//	or …
//	or (k1 = v1 and … and kn = vn)
//
// with NULL-aware component comparisons: this engine sorts NULL before
// every value, so "k > NULL" is "k is not null" and "k = NULL" is
// "k is null".
func resumePredicate(alias string, names []string, key []value.Value) sqlast.Expr {
	gt := func(i int) sqlast.Expr {
		col := sqlast.Col(alias, names[i])
		if key[i].IsNull() {
			return &sqlast.IsNull{E: col, Negate: true}
		}
		return &sqlast.Compare{Op: sqlast.OpGt, L: col, R: &sqlast.Literal{Val: key[i]}}
	}
	eq := func(i int) sqlast.Expr {
		col := sqlast.Col(alias, names[i])
		if key[i].IsNull() {
			return &sqlast.IsNull{E: col}
		}
		return &sqlast.Compare{Op: sqlast.OpEq, L: col, R: &sqlast.Literal{Val: key[i]}}
	}
	var terms []sqlast.Expr
	for i := range names {
		var conj []sqlast.Expr
		for j := 0; j < i; j++ {
			conj = append(conj, eq(j))
		}
		conj = append(conj, gt(i))
		terms = append(terms, sqlast.MakeAnd(conj))
	}
	allEq := make([]sqlast.Expr, len(names))
	for i := range names {
		allEq[i] = eq(i)
	}
	terms = append(terms, sqlast.MakeAnd(allEq))
	if len(terms) == 1 {
		return terms[0]
	}
	return &sqlast.Or{Terms: terms}
}
