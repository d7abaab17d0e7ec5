package sqlexec

import (
	"cmp"
	"context"
	"slices"

	"silkroute/internal/obs"
	"silkroute/internal/table"
	"silkroute/internal/value"
)

// Result is a query's result as row IDs. It holds, per branch (one for a
// select, one per union branch), the branch's FROM/WHERE as a row-ID
// relation and its bound output expressions, and one order over every
// branch's rows. No value is copied when the query runs: Next evaluates
// the next row's output expressions into one reused row.
//
// Rows are stored only where something must keep them: a derived table
// that an enclosing join cannot read through (a union, a sorted select, a
// computed output; see derivedRel), RunContext, and a sort of more rows
// than the sort budget, which drains the result and spills it (extsort.go).
type Result struct {
	Cols     []Col
	branches []branch
	n        int // the row count over every branch

	// Result row p is row order[p] of the branches' numbering: branch b's
	// rows are numbered from its start on, in its relation's order. Nil
	// means that numbering itself.
	order []int32
	// stored holds the rows in order when a spilled sort drained them;
	// then order and branches are no longer read.
	stored []table.Row

	pos int
	row table.Row // what Next returns, overwritten by every call
}

// branch is one select of a result: its rows and what is evaluated over
// them.
type branch struct {
	src *rel
	// exprs are the output columns' expressions, then each sort key's that
	// is not an output column.
	exprs []rowExpr
	start int // the number of the branch's first row
}

// newResult returns the result of one select over src.
func newResult(cols []Col, src *rel, exprs []rowExpr) *Result {
	return &Result{Cols: cols, branches: []branch{{src: src, exprs: exprs}}, n: src.n, row: make(table.Row, len(cols))}
}

// union appends o's rows after r's, as branches of r.
func (r *Result) union(o *Result) {
	for _, b := range o.branches {
		b.start = r.n
		r.branches = append(r.branches, b)
		r.n += b.src.n
	}
}

// Len returns the number of rows in the result.
func (r *Result) Len() int { return r.n }

// Next returns the next row, or ok=false at the end. The row is valid until
// the next call, which overwrites it.
func (r *Result) Next() (table.Row, bool) {
	if r.pos >= r.n {
		return nil, false
	}
	p := r.pos
	r.pos++
	if r.stored != nil {
		return r.stored[p], true
	}
	r.read(p, r.row)
	return r.row, true
}

// read evaluates the first len(row) expressions of result row p into row.
func (r *Result) read(p int, row table.Row) {
	if r.order != nil {
		p = int(r.order[p])
	}
	b, i := r.branchOf(p)
	for c := range row {
		row[c] = b.exprs[c].eval(b.src, i, nil, 0)
	}
}

// branchOf returns the branch and branch row of row g of the branches'
// numbering.
func (r *Result) branchOf(g int) (*branch, int) {
	k := len(r.branches) - 1
	for r.branches[k].start > g {
		k--
	}
	b := &r.branches[k]
	return b, g - b.start
}

// sort orders the result stably by the expressions at positions keys. A
// sort of more rows than budget (when positive) stores the rows, each with
// every expression, and sorts them through the external merge sort;
// otherwise only the order is sorted, by comparing the keys' values read
// through the row IDs.
func (r *Result) sort(ctx context.Context, keys []int, budget int) error {
	if len(keys) == 0 {
		return nil
	}
	if budget > 0 && r.n > budget {
		w, pw := len(r.Cols), len(r.Cols)
		for _, k := range keys {
			pw = max(pw, k+1)
		}
		rows, err := r.store(ctx, pw)
		if err != nil {
			return err
		}
		if err := sortRows(ctx, rows, keys, budget); err != nil {
			return err
		}
		if pw > w {
			for i, row := range rows {
				rows[i] = row[:w:w]
			}
		}
		r.stored, r.pos = rows, 0
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(r.branches) == 1 {
		// A key that reads no column (the structural ORDER BY's L columns
		// are literals in a select) is the same on every row of one branch.
		b := &r.branches[0]
		keys = slices.DeleteFunc(keys, func(k int) bool { return b.exprs[k].bare < 0 && len(b.exprs[k].reads) == 0 })
	}
	r.order = make([]int32, r.n)
	for i := range r.order {
		r.order[i] = int32(i)
	}
	// Ties are broken by row number, so the unstable sort returns the
	// stable order.
	slices.SortFunc(r.order, func(x, y int32) int {
		bx, ix := r.branchOf(int(x))
		by, iy := r.branchOf(int(y))
		for _, k := range keys {
			if d := value.Compare(bx.exprs[k].eval(bx.src, ix, nil, 0), by.exprs[k].eval(by.src, iy, nil, 0)); d != 0 {
				return d
			}
		}
		return cmp.Compare(x, y)
	})
	if m := obs.M(); m != nil {
		m.Exec.RowsSorted.Add(int64(r.n))
	}
	return nil
}

// store returns the rows not yet read, in order, each holding the first w
// of its branch's expressions, carved from one value slab. It reads the
// result to its end.
func (r *Result) store(ctx context.Context, w int) ([]table.Row, error) {
	if r.stored != nil {
		rows := r.stored[r.pos:]
		r.pos = r.n
		return rows, nil
	}
	rows := make([]table.Row, r.n-r.pos)
	slab := make([]value.Value, len(rows)*w)
	for j := range rows {
		if err := pollCtx(ctx, j); err != nil {
			return nil, err
		}
		rows[j] = slab[j*w : (j+1)*w : (j+1)*w]
		r.read(r.pos, rows[j])
		r.pos++
	}
	return rows, nil
}
