package sqlexec

import (
	"slices"

	"silkroute/internal/sqlast"
)

// FromPlan is how a SELECT evaluates its comma-separated FROM list under
// its WHERE clause. The executor runs it and the engine's estimator prices
// it, so both follow one plan.
type FromPlan struct {
	// Order lists the FROM entries in join order, starting at entry 0.
	Order []int
	// Filter[ci] is the entry conjunct ci filters before any join, or -1.
	Filter []int
	// Step[ci] is the join step s ≥ 1, the join of entry Order[s], that
	// conjunct ci is a hash-join key of, or 0.
	Step []int
}

// Residual reports whether conjunct ci filters the joined result: it is
// neither an entry's filter nor a join key.
func (p *FromPlan) Residual(ci int) bool { return p.Filter[ci] < 0 && p.Step[ci] == 0 }

// Named is a column as the planner sees it: the executor plans over Col,
// the estimator over its own column statistics.
type Named interface{ Named() Col }

// Named returns c itself.
func (c Col) Named() Col { return c }

// PlanFrom plans a FROM list of entries, given by their columns, under the
// WHERE conjuncts conjs. Every column reference resolves against all
// entries' columns at once, and counts only where it names exactly one
// column, so an unknown or ambiguous reference is never pushed down or
// joined on: it stays residual, where binding it reports the error.
//
//   - A conjunct whose references all name columns of one entry filters
//     that entry before any join.
//   - A join step takes the first remaining entry that an equality between
//     two column references connects to the entries joined so far, else
//     the next one (a cross product). Every such equality keys the step.
//   - Everything else is residual. This mirrors what any real target RDBMS
//     does with the paper's generated queries; without it, comma joins over
//     TPC-H would be quadratic cross products.
//
// The plan is carved from one allocation; nothing is allocated per
// conjunct or per reference.
func PlanFrom[C Named](entries [][]C, conjs []sqlast.Expr) FromPlan {
	n, m := len(entries), len(conjs)
	ints := make([]int, n+4*m)
	p := FromPlan{Order: ints[:0:n], Filter: ints[n : n+m : n+m], Step: ints[n+m : n+2*m : n+2*m]}
	// ends[2ci] and ends[2ci+1] are the two entries an equality conjunct ci
	// connects, else -1.
	ends := ints[n+2*m:]
	for ci, c := range conjs {
		ends[2*ci], ends[2*ci+1] = -1, -1
		if a, b, ok := equiEnds(entries, c); ok {
			ends[2*ci], ends[2*ci+1] = a, b
			p.Filter[ci] = -1
			continue
		}
		p.Filter[ci] = owner(entries, c)
	}
	if n == 0 {
		return p
	}
	p.Order = append(p.Order, 0)
	for s := 1; s < n; s++ {
		first, next := -1, -1
		for e := 1; e < n && next < 0; e++ {
			if slices.Contains(p.Order, e) {
				continue
			}
			if first < 0 {
				first = e
			}
			for ci := range conjs {
				if connects(ends, p.Order, ci, e) {
					next = e
					break
				}
			}
		}
		if next < 0 {
			next = first // nothing connects: a cross product
		}
		for ci := range conjs {
			if connects(ends, p.Order, ci, next) {
				p.Step[ci] = s
			}
		}
		p.Order = append(p.Order, next)
	}
	return p
}

// connects reports whether conjunct ci joins entry e to the entries
// joined so far.
func connects(ends, joined []int, ci, e int) bool {
	a, b := ends[2*ci], ends[2*ci+1]
	return a == e && slices.Contains(joined, b) || b == e && slices.Contains(joined, a)
}

// equiEnds reports the entries of the two sides of c when c is an equality
// between two column references that each name one column, of two
// different entries.
func equiEnds[C Named](entries [][]C, c sqlast.Expr) (a, b int, ok bool) {
	cmp, isCmp := c.(*sqlast.Compare)
	if !isCmp || cmp.Op != sqlast.OpEq {
		return 0, 0, false
	}
	l, lok := cmp.L.(*sqlast.ColumnRef)
	r, rok := cmp.R.(*sqlast.ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	a, b = locate(entries, l), locate(entries, r)
	return a, b, a >= 0 && b >= 0 && a != b
}

// owner returns the entry whose columns every reference in e names, or -1
// when e references none, an unknown or ambiguous column, or two entries.
func owner[C Named](entries [][]C, e sqlast.Expr) int {
	var buf [8]*sqlast.ColumnRef
	own := -1
	for _, cr := range sqlast.ColumnRefs(e, buf[:0]) {
		o := locate(entries, cr)
		if o < 0 || own >= 0 && o != own {
			return -1
		}
		own = o
	}
	return own
}

// locate returns the entry holding the one column cr names among all
// entries' columns, or -1 when none or several do.
func locate[C Named](entries [][]C, cr *sqlast.ColumnRef) int {
	found := -1
	for e, cols := range entries {
		for _, c := range cols {
			if !c.Named().matches(cr.Table, cr.Column) {
				continue
			}
			if found >= 0 {
				return -1
			}
			found = e
		}
	}
	return found
}
