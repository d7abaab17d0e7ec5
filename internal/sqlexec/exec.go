package sqlexec

import (
	"context"
	"fmt"
	"slices"

	"silkroute/internal/obs"
	"silkroute/internal/sqlast"
	"silkroute/internal/value"
)

// Open executes a query against the catalog under a context and returns
// its result as a cursor (see Result). The result's columns carry the
// output names (aliases or source column names); unnamed expression columns
// have empty names. Execution checks the context cooperatively — between
// row batches of the scan, join and sort loops and between external-sort
// runs — and returns ctx.Err() promptly after cancellation, so
// errors.Is(err, context.Canceled) holds.
func Open(ctx context.Context, cat Catalog, q sqlast.Query) (*Result, error) {
	return evalQuery(ctx, cat, q)
}

// RunContext is Open with the result's rows stored: every row, in order.
func RunContext(ctx context.Context, cat Catalog, q sqlast.Query) (*Rel, error) {
	res, err := evalQuery(ctx, cat, q)
	if err != nil {
		return nil, err
	}
	rows, err := res.store(ctx, len(res.Cols))
	if err != nil {
		return nil, err
	}
	return &Rel{Cols: res.Cols, Rows: rows}, nil
}

// checkRows is the row granularity of cooperative cancellation checks:
// hot loops test the context once per checkRows rows, keeping the check
// off the per-row fast path.
const checkRows = 4096

// pollCtx returns the context's error on batch boundaries (every checkRows
// iterations, including iteration zero).
func pollCtx(ctx context.Context, i int) error {
	if i&(checkRows-1) != 0 {
		return nil
	}
	return ctx.Err()
}

func evalQuery(ctx context.Context, cat Catalog, q sqlast.Query) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var res *Result
	var keys []int
	var err error
	switch q := q.(type) {
	case *sqlast.Select:
		res, keys, err = evalSelect(ctx, cat, q)
	case *sqlast.Union:
		res, keys, err = evalUnion(ctx, cat, q)
	default:
		return nil, fmt.Errorf("sqlexec: unsupported query %T", q)
	}
	if err != nil {
		return nil, err
	}
	if err := res.sort(ctx, keys, sortBudget(cat)); err != nil {
		return nil, err
	}
	return res, nil
}

// evalUnion returns the union's result, one branch per union branch, and
// its sort keys, which are output columns. A branch's own ORDER BY, which
// the parser never produces, orders nothing.
func evalUnion(ctx context.Context, cat Catalog, u *sqlast.Union) (*Result, []int, error) {
	if len(u.Branches) == 0 {
		return nil, nil, fmt.Errorf("sqlexec: union with no branches")
	}
	var out *Result
	for i, b := range u.Branches {
		r, _, err := evalSelect(ctx, cat, b)
		if err != nil {
			return nil, nil, fmt.Errorf("sqlexec: union branch %d: %w", i, err)
		}
		if out == nil {
			out = r
			continue
		}
		if len(r.Cols) != len(out.Cols) {
			return nil, nil, fmt.Errorf("sqlexec: union branch %d has %d columns, first branch has %d",
				i, len(r.Cols), len(out.Cols))
		}
		out.union(r)
	}
	keys, _, err := orderKeys(u.OrderBy, out.Cols, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return out, keys, nil
}

// evalSelect returns the select's unsorted result, one branch, and its
// sort keys: positions among the branch's expressions.
func evalSelect(ctx context.Context, cat Catalog, s *sqlast.Select) (*Result, []int, error) {
	// The select list and the ORDER BY (which may fall back to
	// pre-projection columns) are what every join below must carry.
	var need []*sqlast.ColumnRef
	for _, item := range s.Items {
		need = sqlast.ColumnRefs(item.Expr, need)
	}
	for _, item := range s.OrderBy {
		need = sqlast.ColumnRefs(item.Expr, need)
	}
	src, err := evalFromWhere(ctx, cat, s.From, s.Where, need)
	if err != nil {
		return nil, nil, err
	}

	// Bind the output expressions, then a sort key that is not an output
	// column as one more expression after them. Nothing is evaluated here:
	// the result evaluates them per row, when it sorts and when it is read.
	w := len(s.Items)
	exprs := make([]rowExpr, w, w+len(s.OrderBy))
	outCols := make([]Col, w)
	for i, item := range s.Items {
		e, err := bind(item.Expr, src.cols, len(src.cols))
		if err != nil {
			return nil, nil, err
		}
		exprs[i] = e
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlast.ColumnRef); ok {
				name = cr.Column
			}
		}
		outCols[i] = Col{Name: name}
	}
	keys, exprs, err := orderKeys(s.OrderBy, outCols, src, exprs)
	if err != nil {
		return nil, nil, err
	}
	return newResult(outCols, src, exprs), keys, nil
}

// orderKeys returns the column position of each ORDER BY key, which the
// subset's parser makes a column reference or a literal. A literal orders
// nothing and is dropped. A reference to an output column, one of cols,
// sorts by that column. In a select (src non-nil), any other reference
// resolves against the pre-projection relation src and becomes one more
// expression after the output columns: it is appended to exprs, and its
// position is past the output columns.
func orderKeys(order []sqlast.OrderItem, cols []Col, src *rel, exprs []rowExpr) ([]int, []rowExpr, error) {
	var keys []int
	for _, item := range order {
		switch e := item.Expr.(type) {
		case *sqlast.Literal:
		case *sqlast.ColumnRef:
			k, outErr := resolve(cols, e.Table, e.Column)
			if outErr == nil {
				keys = append(keys, k)
				continue
			}
			if src == nil {
				return nil, nil, fmt.Errorf("sqlexec: order by: %w", outErr)
			}
			x, err := bind(e, src.cols, len(src.cols))
			if err != nil {
				return nil, nil, fmt.Errorf("sqlexec: order by: %w", err)
			}
			keys = append(keys, len(exprs))
			exprs = append(exprs, x)
		default:
			return nil, nil, fmt.Errorf("sqlexec: order by: unsupported key %T", e)
		}
	}
	return keys, exprs, nil
}

// evalFromWhere evaluates a comma-separated FROM list under a WHERE clause
// by the plan PlanFrom makes of it: filters on the entries, then hash
// joins in the plan's order, then the residual filter. need lists the
// references the caller evaluates over the result; each join keeps only
// the columns they and the conjuncts not yet applied can resolve to.
func evalFromWhere(ctx context.Context, cat Catalog, from []sqlast.TableExpr, where sqlast.Expr, need []*sqlast.ColumnRef) (*rel, error) {
	if len(from) == 0 {
		// A FROM-less select produces one row so literal selects work.
		if where != nil {
			return nil, fmt.Errorf("sqlexec: where clause without from clause")
		}
		return &rel{n: 1}, nil
	}

	conjs := sqlast.Conjuncts(where)
	entryNeed := need[:len(need):len(need)]
	for _, c := range conjs {
		entryNeed = sqlast.ColumnRefs(c, entryNeed)
	}
	rels := make([]*rel, len(from))
	cols := make([][]Col, len(from))
	for i, te := range from {
		r, err := evalTable(ctx, cat, te, entryNeed)
		if err != nil {
			return nil, err
		}
		rels[i], cols[i] = r, r.cols
	}
	p := PlanFrom(cols, conjs)

	for ci, e := range p.Filter {
		if e < 0 {
			continue
		}
		pred, err := bind(conjs[ci], rels[e].cols, len(rels[e].cols))
		if err != nil {
			return nil, err
		}
		rels[e] = filterRel(rels[e], pred)
	}

	// keep lists need, the residual's references, then each join step's
	// keys from the last step back: the result of step s carries
	// keep[:end], where end drops the keys of step s and those before it.
	var residual []sqlast.Expr
	keep := need[:len(need):len(need)]
	for ci, c := range conjs {
		if p.Residual(ci) {
			residual = append(residual, c)
			keep = sqlast.ColumnRefs(c, keep)
		}
	}
	for s := len(p.Order) - 1; s > 0; s-- {
		for ci, c := range conjs {
			if p.Step[ci] == s {
				keep = sqlast.ColumnRefs(c, keep)
			}
		}
	}
	end := len(keep)
	joined := rels[p.Order[0]]
	for s := 1; s < len(p.Order); s++ {
		var keys []sqlast.Expr
		for ci, c := range conjs {
			if p.Step[ci] == s {
				keys = append(keys, c)
				end -= 2 // a key is an equality of two column references
			}
		}
		var err error
		joined, err = evalJoinRel(ctx, joined, rels[p.Order[s]], sqlast.JoinInner, sqlast.MakeAnd(keys), keep[:end])
		if err != nil {
			return nil, err
		}
	}

	if len(residual) > 0 {
		pred, err := bind(sqlast.MakeAnd(residual), joined.cols, len(joined.cols))
		if err != nil {
			return nil, err
		}
		joined = filterRel(joined, pred)
	}
	return joined, nil
}

// filterRel returns the rows of x that satisfy pred, bound to x's
// columns, as a new relation over the same inputs: it filters the ID
// columns and never copies or mutates a stored row.
func filterRel(x *rel, pred rowExpr) *rel {
	sel := make([]int32, 0, x.n) // the passing rows of x
	for i := 0; i < x.n; i++ {
		if isTrue(pred.eval(x, i, nil, 0)) {
			sel = append(sel, int32(i))
		}
	}
	n := len(sel)
	if len(x.ins) == 1 {
		// One input, a scan or filtered scan: its IDs replace sel's in place.
		for k, i := range sel {
			sel[k] = x.ins[0].id(int(i))
		}
		return oneInput(x.cols, x.src, x.ins[0].withIDs(sel), n)
	}
	out := &rel{cols: x.cols, src: x.src, ins: make([]input, len(x.ins)), n: n}
	block := make([]int32, len(x.ins)*n)
	for j := range x.ins {
		in := &x.ins[j]
		ids := block[j*n : (j+1)*n : (j+1)*n]
		for k, i := range sel {
			ids[k] = in.id(int(i))
		}
		out.ins[j] = in.withIDs(ids)
	}
	return out
}

// evalTable evaluates one FROM entry. need lists the references evaluated
// over its result; a join keeps only the columns they can resolve to.
// A base table is scanned whole and in place. A derived table is its inner
// relation read through its row IDs (derivedRel) when its select allows,
// and otherwise its stored rows.
func evalTable(ctx context.Context, cat Catalog, te sqlast.TableExpr, need []*sqlast.ColumnRef) (*rel, error) {
	switch te := te.(type) {
	case *sqlast.BaseTable:
		alias := te.Alias
		if alias == "" {
			alias = te.Name
		}
		t, ok := cat.Lookup(te.Name)
		if !ok {
			return nil, fmt.Errorf("sqlexec: unknown table %q", te.Name)
		}
		cols := make([]Col, len(t.Rel.Columns))
		for i, c := range t.Rel.Columns {
			cols[i] = Col{Qual: alias, Name: c.Name}
		}
		if m := obs.M(); m != nil {
			m.Exec.RowsScanned.Add(int64(t.Len()))
		}
		return scan(cols, input{cols: t.Columns()}, t.Len()), nil
	case *sqlast.Derived:
		if s, ok := readThrough(te.Query); ok {
			return derivedRel(ctx, cat, s, te.Alias)
		}
		inner, err := evalQuery(ctx, cat, te.Query)
		if err != nil {
			return nil, err
		}
		// A union, a sorted or FROM-less select and a computed output have
		// no one row-ID relation whose inputs hold their rows' values, and
		// a join reads its inputs by row ID: their rows are stored.
		rows, err := inner.store(ctx, len(inner.Cols))
		if err != nil {
			return nil, err
		}
		cols := make([]Col, len(inner.Cols))
		for i, c := range inner.Cols {
			cols[i] = Col{Qual: te.Alias, Name: c.Name}
		}
		return scan(cols, input{rows: rows}, len(rows)), nil
	case *sqlast.Join:
		// The inputs must also carry what this join's own ON reads.
		inner := sqlast.ColumnRefs(te.On, need[:len(need):len(need)])
		l, err := evalTable(ctx, cat, te.L, inner)
		if err != nil {
			return nil, err
		}
		r, err := evalTable(ctx, cat, te.R, inner)
		if err != nil {
			return nil, err
		}
		return evalJoinRel(ctx, l, r, te.Kind, te.On, need)
	default:
		return nil, fmt.Errorf("sqlexec: unsupported table expression %T", te)
	}
}

// readThrough returns the select of a derived table that can be read
// through its inner relation's row IDs: one select with a FROM clause and
// no ORDER BY, whose every output is a column reference or a literal.
func readThrough(q sqlast.Query) (*sqlast.Select, bool) {
	s, ok := q.(*sqlast.Select)
	if !ok || len(s.From) == 0 || len(s.OrderBy) > 0 {
		return nil, false
	}
	for _, item := range s.Items {
		switch item.Expr.(type) {
		case *sqlast.ColumnRef, *sqlast.Literal:
		default:
			return nil, false
		}
	}
	return s, true
}

// derivedRel evaluates the derived table s, aliased alias, as its inner
// FROM/WHERE relation with the select's outputs as its columns; no value
// is copied. An output column reference reads where the inner column
// does, so the source stays one lookup at any depth of nesting. The
// literals are the columns of one more input, the presence input, whose
// one stored row holds them: its ID is 0 on every derived row, and an
// enclosing left outer join pads it with -1 like any other input, so a
// literal reads as NULL there. Presence cannot be read off an inner input:
// the inner joins may have pruned every input that no outer join pads.
func derivedRel(ctx context.Context, cat Catalog, s *sqlast.Select, alias string) (*rel, error) {
	res, _, err := evalSelect(ctx, cat, s)
	if err != nil {
		return nil, err
	}
	b := &res.branches[0]
	inner := b.src
	x := &rel{cols: make([]Col, len(res.Cols)), src: make([]colSrc, len(res.Cols)), ins: inner.ins, n: inner.n}
	var lits [][]value.Value // the presence input's columns, one value each
	for k, item := range s.Items {
		x.cols[k] = Col{Qual: alias, Name: res.Cols[k].Name}
		if lit, ok := item.Expr.(*sqlast.Literal); ok {
			x.src[k] = colSrc{in: len(inner.ins), col: len(lits)}
			lits = append(lits, []value.Value{lit.Val})
			continue
		}
		x.src[k] = inner.source(b.exprs[k].bare)
	}
	if lits != nil {
		x.ins = append(inner.ins[:len(inner.ins):len(inner.ins)], input{cols: lits, ids: make([]int32, inner.n)})
	}
	return x, nil
}

// evalJoinRel joins two row-ID relations, keeping only the columns that
// some reference in need can resolve to. The ON condition is decomposed
// into disjuncts (the paper's unified plans join on
// "(L2=1 and …) or (L2=2 and …)"); each disjunct contributes matches via a
// hash join when it contains an equi-conjunct, or a filtered nested loop
// otherwise. Matches from different disjuncts are deduplicated so the join
// behaves as a single logical predicate. The matches come first, so the
// result's ID columns are carved from one allocation sized to the exact
// row count; no value is copied.
func evalJoinRel(ctx context.Context, l, r *rel, kind sqlast.JoinKind, on sqlast.Expr, need []*sqlast.ColumnRef) (*rel, error) {
	m, err := joinMatches(ctx, l, r, on)
	if err != nil {
		return nil, err
	}
	outer := kind == sqlast.JoinLeftOuter
	n := len(m.right)
	if outer {
		for li := 0; li < l.n; li++ {
			if m.off[li] == m.off[li+1] {
				n++
			}
		}
	}

	// Expose the kept columns. The inputs of l, then those of r, are
	// numbered in one sequence; slot maps each to its place in the result,
	// or -1 when no kept column reads it and it drops out.
	nl := len(l.ins)
	slot := make([]int, nl+len(r.ins))
	for c := range slot {
		slot[c] = -1
	}
	cols := make([]Col, 0, len(l.cols)+len(r.cols))
	src := make([]colSrc, 0, cap(cols))
	for k, c := range l.cols {
		if keepCol(c, need) {
			cols = append(cols, c)
			s := l.source(k)
			src = append(src, s)
			slot[s.in] = 0
		}
	}
	for k, c := range r.cols {
		if keepCol(c, need) {
			s := r.source(k)
			s.in += nl
			cols = append(cols, c)
			src = append(src, s)
			slot[s.in] = 0
		}
	}
	nout := 0 // number the inputs marked 0 above in order
	for c := range slot {
		if slot[c] == 0 {
			slot[c] = nout
			nout++
		}
	}
	for k := range src {
		src[k].in = slot[src[k].in]
	}

	out := &rel{cols: cols, src: src, ins: make([]input, nout), n: n}
	block := make([]int32, nout*n)
	for c, j := range slot {
		if j < 0 {
			continue
		}
		ids := block[j*n : (j+1)*n : (j+1)*n]
		o := 0
		if c < nl {
			// A left input repeats its ID once per match of its row, and
			// once for an unmatched row an outer join keeps.
			in := &l.ins[c]
			for li := 0; li < l.n; li++ {
				if err := pollCtx(ctx, li); err != nil {
					return nil, err
				}
				k := int(m.off[li+1] - m.off[li])
				if k == 0 && outer {
					k = 1
				}
				for id := in.id(li); k > 0; k-- {
					ids[o] = id
					o++
				}
			}
			out.ins[j] = in.withIDs(ids)
			continue
		}
		// A right input takes its matched rows' IDs, and -1 where an outer
		// join pads an unmatched left row.
		in := &r.ins[c-nl]
		for li := 0; li < l.n; li++ {
			if err := pollCtx(ctx, li); err != nil {
				return nil, err
			}
			rs := m.right[m.off[li]:m.off[li+1]]
			if len(rs) == 0 && outer {
				ids[o] = -1
				o++
			}
			for _, ri := range rs {
				ids[o] = in.id(int(ri))
				o++
			}
		}
		out.ins[j] = in.withIDs(ids)
	}
	if m := obs.M(); m != nil {
		m.Exec.RowsJoined.Add(int64(n))
	}
	return out, nil
}

// matchList holds a join's matches flat: left row li matches the right
// rows right[off[li]:off[li+1]], in ascending order.
type matchList struct {
	off   []int32
	right []int32
}

// joinMatches computes the matches of an ON condition (nil: a cross
// product) between l and r.
func joinMatches(ctx context.Context, l, r *rel, on sqlast.Expr) (matchList, error) {
	// A key/foreign-key join matches at most the larger side's row count;
	// sizing the match lists to it spares them growth in the common case.
	size := max(l.n, r.n)
	p := pairs{left: make([]int32, 0, size), right: make([]int32, 0, size)}
	if on == nil {
		for li := 0; li < l.n; li++ {
			for ri := 0; ri < r.n; ri++ {
				p.add(li, ri)
			}
		}
		return p.group(l.n, false), nil
	}
	disjuncts := []sqlast.Expr{on}
	if or, ok := on.(*sqlast.Or); ok {
		disjuncts = or.Terms
	}
	for _, d := range disjuncts {
		if err := joinDisjunct(ctx, l, r, d, &p); err != nil {
			return matchList{}, err
		}
	}
	return p.group(l.n, len(disjuncts) > 1), nil
}

// pairs collects (left, right) row-index matches in the order one disjunct
// finds them: ascending left index, ascending right index within a left
// row.
type pairs struct{ left, right []int32 }

func (p *pairs) add(li, ri int) {
	p.left = append(p.left, int32(li))
	p.right = append(p.right, int32(ri))
}

// group turns the pairs into a matchList over nLeft left rows. One
// disjunct's pairs arrive grouped and ordered already. Several disjuncts'
// pairs (merge) are gathered per left row by a counting sort, and each
// left row's segment is then sorted and deduplicated in place, so a pair
// two disjuncts both match is emitted once.
func (p *pairs) group(nLeft int, merge bool) matchList {
	off := make([]int32, nLeft+1)
	for _, li := range p.left {
		off[li+1]++
	}
	for i := 1; i <= nLeft; i++ {
		off[i] += off[i-1]
	}
	if !merge {
		return matchList{off: off, right: p.right}
	}
	right := make([]int32, len(p.right))
	next := append([]int32(nil), off[:nLeft]...)
	for k, li := range p.left {
		right[next[li]] = p.right[k]
		next[li]++
	}
	w := int32(0)
	for li := 0; li < nLeft; li++ {
		seg := right[off[li]:off[li+1]]
		slices.Sort(seg)
		seg = slices.Compact(seg)
		off[li] = w
		w += int32(copy(right[w:], seg))
	}
	off[nLeft] = w
	return matchList{off: off, right: right[:w]}
}

// joinDisjunct appends the (left, right) index pairs satisfying one ON
// disjunct to p.
func joinDisjunct(ctx context.Context, l, r *rel, d sqlast.Expr, p *pairs) error {
	conjs := sqlast.Conjuncts(d)
	var leftKeys, rightKeys []int // key columns of l and r
	var leftPred, rightPred []rowExpr
	var residual []rowExpr
	var both []Col // l's columns then r's, the layout residuals read
	for _, c := range conjs {
		if cmp, ok := c.(*sqlast.Compare); ok && cmp.Op == sqlast.OpEq {
			lc, lok := cmp.L.(*sqlast.ColumnRef)
			rc, rok := cmp.R.(*sqlast.ColumnRef)
			if lok && rok {
				li1, e1 := resolve(l.cols, lc.Table, lc.Column)
				ri1, e2 := resolve(r.cols, rc.Table, rc.Column)
				if e1 == nil && e2 == nil {
					leftKeys = append(leftKeys, li1)
					rightKeys = append(rightKeys, ri1)
					continue
				}
				ri2, e3 := resolve(r.cols, lc.Table, lc.Column)
				li2, e4 := resolve(l.cols, rc.Table, rc.Column)
				if e3 == nil && e4 == nil {
					leftKeys = append(leftKeys, li2)
					rightKeys = append(rightKeys, ri2)
					continue
				}
			}
		}
		// Not a cross-relation equality: classify as one-sided or residual.
		if e, err := bind(c, l.cols, len(l.cols)); err == nil {
			leftPred = append(leftPred, e)
			continue
		}
		if e, err := bind(c, r.cols, len(r.cols)); err == nil {
			rightPred = append(rightPred, e)
			continue
		}
		if both == nil {
			both = concatCols(l.cols, r.cols)
		}
		e, err := bind(c, both, len(l.cols))
		if err != nil {
			return err
		}
		residual = append(residual, e)
	}

	passes := func(preds []rowExpr, x *rel, i int) bool {
		for k := range preds {
			if !isTrue(preds[k].eval(x, i, nil, 0)) {
				return false
			}
		}
		return true
	}
	// Residuals read a candidate pair's columns straight from both sides.
	record := func(li, ri int) {
		for k := range residual {
			if !isTrue(residual[k].eval(l, li, r, ri)) {
				return
			}
		}
		p.add(li, ri)
	}

	if len(leftKeys) > 0 {
		// Hash join: build on the right, probe from the left. One int32
		// allocation holds the table: a power-of-two array of bucket heads,
		// at least one per build row, then each row's next link. Slots hold
		// row+1, so 0 ends a chain. Rows are inserted from the last, so
		// every chain, and with it each left row's matches, is in ascending
		// row order. A row whose key has a NULL never enters the table:
		// NULL equals nothing. A candidate in the probed bucket matches
		// only if Compare finds every key column equal.
		nb := 1
		for nb < r.n {
			nb <<= 1
		}
		tab := make([]int32, nb+r.n)
		head, next := tab[:nb], tab[nb:]
		mask := uint64(nb - 1)
		for ri := r.n - 1; ri >= 0; ri-- {
			if err := pollCtx(ctx, ri); err != nil {
				return err
			}
			if !passes(rightPred, r, ri) {
				continue
			}
			h, ok := hashKey(r, rightKeys, ri)
			if !ok {
				continue
			}
			next[ri] = head[h&mask]
			head[h&mask] = int32(ri + 1)
		}
		for li := 0; li < l.n; li++ {
			if err := pollCtx(ctx, li); err != nil {
				return err
			}
			if !passes(leftPred, l, li) {
				continue
			}
			h, ok := hashKey(l, leftKeys, li)
			if !ok {
				continue
			}
		chain:
			for s := head[h&mask]; s != 0; s = next[s-1] {
				ri := int(s - 1)
				for k, lk := range leftKeys {
					if value.Compare(l.at(li, lk), r.at(ri, rightKeys[k])) != 0 {
						continue chain
					}
				}
				record(li, ri)
			}
		}
		return nil
	}

	// Nested loop over pre-filtered sides.
	var rightIdx []int
	for ri := 0; ri < r.n; ri++ {
		if passes(rightPred, r, ri) {
			rightIdx = append(rightIdx, ri)
		}
	}
	for li := 0; li < l.n; li++ {
		if err := pollCtx(ctx, li); err != nil {
			return err
		}
		if !passes(leftPred, l, li) {
			continue
		}
		for _, ri := range rightIdx {
			record(li, ri)
		}
	}
	return nil
}

// hashKey returns the hash of row i of x under the given key columns,
// each column's value.Hash seeding the next; ok is false when any key
// value is NULL.
func hashKey(x *rel, keys []int, i int) (h uint64, ok bool) {
	for _, k := range keys {
		if h, ok = value.Hash(x.at(i, k), h); !ok {
			return 0, false
		}
	}
	return h, true
}
