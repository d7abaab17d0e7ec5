package sqlexec

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"silkroute/internal/obs"
	"silkroute/internal/sqlast"
	"silkroute/internal/table"
	"silkroute/internal/value"
)

// Run executes a query against the catalog and returns the materialized
// result. The result's columns carry the output names (aliases or source
// column names); unnamed expression columns have empty names.
func Run(cat Catalog, q sqlast.Query) (*Rel, error) {
	return RunContext(context.Background(), cat, q)
}

// RunContext executes a query under a context. Execution checks the
// context cooperatively — between row batches of the scan, join, and
// projection loops and between external-sort runs — and returns ctx.Err()
// promptly after cancellation, so errors.Is(err, context.Canceled) holds.
func RunContext(ctx context.Context, cat Catalog, q sqlast.Query) (*Rel, error) {
	return evalQuery(ctx, cat, q)
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

func evalQuery(ctx context.Context, cat Catalog, q sqlast.Query) (*Rel, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch q := q.(type) {
	case *sqlast.Select:
		return evalSelect(ctx, cat, q)
	case *sqlast.Union:
		return evalUnion(ctx, cat, q)
	case *sqlast.With:
		return evalWith(ctx, cat, q)
	default:
		return nil, fmt.Errorf("sqlexec: unsupported query %T", q)
	}
}

// cteCatalog overlays materialized common table expressions on a catalog.
// Each CTE is evaluated exactly once, in order, and later CTEs and the
// body may scan earlier ones by name.
type cteCatalog struct {
	Catalog
	ctes map[string]*Rel
}

// LookupRel resolves a CTE by name.
func (c cteCatalog) LookupRel(name string) (*Rel, bool) {
	r, ok := c.ctes[strings.ToLower(name)]
	return r, ok
}

// SortMemoryRows forwards the underlying catalog's budget.
func (c cteCatalog) SortMemoryRows() int {
	if sb, ok := c.Catalog.(SortBudget); ok {
		return sb.SortMemoryRows()
	}
	return 0
}

// relProvider is implemented by catalogs that can resolve named
// intermediate relations (CTEs) in addition to stored tables.
type relProvider interface {
	LookupRel(name string) (*Rel, bool)
}

func evalWith(ctx context.Context, cat Catalog, w *sqlast.With) (*Rel, error) {
	overlay := cteCatalog{Catalog: cat, ctes: make(map[string]*Rel, len(w.CTEs))}
	for _, cte := range w.CTEs {
		name := strings.ToLower(cte.Name)
		if _, dup := overlay.ctes[name]; dup {
			return nil, fmt.Errorf("sqlexec: duplicate CTE %q", cte.Name)
		}
		r, err := evalQuery(ctx, overlay, cte.Query)
		if err != nil {
			return nil, fmt.Errorf("sqlexec: CTE %s: %w", cte.Name, err)
		}
		overlay.ctes[name] = r
	}
	return evalQuery(ctx, overlay, w.Body)
}

func evalUnion(ctx context.Context, cat Catalog, u *sqlast.Union) (*Rel, error) {
	if len(u.Branches) == 0 {
		return nil, fmt.Errorf("sqlexec: union with no branches")
	}
	var out *Rel
	for i, b := range u.Branches {
		r, err := evalSelect(ctx, cat, b)
		if err != nil {
			return nil, fmt.Errorf("sqlexec: union branch %d: %w", i, err)
		}
		if out == nil {
			// Clone the first branch's row slice before appending later
			// branches: a branch may hand back a relation whose backing
			// array is shared (a memoized CTE, a base table), and appending
			// in place would splice other branches' rows into it.
			out = &Rel{Cols: r.Cols, Rows: append([]table.Row(nil), r.Rows...)}
			continue
		}
		if len(r.Cols) != len(out.Cols) {
			return nil, fmt.Errorf("sqlexec: union branch %d has %d columns, first branch has %d",
				i, len(r.Cols), len(out.Cols))
		}
		out.Rows = append(out.Rows, r.Rows...)
	}
	if err := sortRel(ctx, cat, out, u.OrderBy, nil); err != nil {
		return nil, err
	}
	return out, nil
}

func evalSelect(ctx context.Context, cat Catalog, s *sqlast.Select) (*Rel, error) {
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
		return nil, err
	}

	// Project: the one place the query's values are copied, into rows
	// carved from one value array. Each row is capped at its width, so
	// appending to one can never overwrite the next.
	exprs := make([]rowExpr, len(s.Items))
	outCols := make([]Col, len(s.Items))
	for i, item := range s.Items {
		e, err := bind(item.Expr, src.cols, len(src.cols))
		if err != nil {
			return nil, err
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
	w := len(exprs)
	slab := make([]value.Value, src.n*w)
	out := &Rel{Cols: outCols, Rows: make([]table.Row, src.n)}
	for ri := range out.Rows {
		if err := pollCtx(ctx, ri); err != nil {
			return nil, err
		}
		prow := slab[ri*w : (ri+1)*w : (ri+1)*w]
		for i := range exprs {
			prow[i] = exprs[i].eval(src, ri, nil, 0)
		}
		out.Rows[ri] = prow
	}
	if err := sortRel(ctx, cat, out, s.OrderBy, src); err != nil {
		return nil, err
	}
	return out, nil
}

// sortRel sorts out by the ORDER BY items. Keys resolve against the output
// columns first (aliases such as L1, L2); a key that does not resolve there
// falls back to the pre-projection source relation, whose rows parallel the
// output rows one-to-one. When every key is an output column and the sort
// fits the catalog's memory budget, the rows are sorted in place by column
// index. Otherwise each row's key is evaluated into one key slab, and
// sorts larger than the budget spill to disk through the external merge
// sort.
func sortRel(ctx context.Context, cat Catalog, out *Rel, order []sqlast.OrderItem, src *rel) error {
	if len(order) == 0 {
		return nil
	}
	type keyFn struct {
		expr  compiledExpr // over an output row
		onSrc rowExpr      // over a source row, when the key is not an output column
		isSrc bool
	}
	keys := make([]keyFn, len(order))
	cols := make([]int, 0, len(order)) // the key columns, while every key is one
	for i, item := range order {
		ce, outErr := compile(item.Expr, out.Cols)
		if outErr == nil {
			keys[i] = keyFn{expr: ce}
			if c, ok := ce.(colExpr); ok && len(cols) == i {
				cols = append(cols, c.idx)
			}
			continue
		}
		if src == nil {
			return fmt.Errorf("sqlexec: order by: %w", outErr)
		}
		e, err := bind(item.Expr, src.cols, len(src.cols))
		if err != nil {
			return fmt.Errorf("sqlexec: order by: %w", err)
		}
		keys[i] = keyFn{onSrc: e, isSrc: true}
	}
	budget := 0
	if sb, ok := cat.(SortBudget); ok {
		budget = sb.SortMemoryRows()
	}
	if len(cols) == len(keys) && (budget <= 0 || len(out.Rows) <= budget) {
		if err := ctx.Err(); err != nil {
			return err
		}
		slices.SortStableFunc(out.Rows, func(a, b table.Row) int {
			for _, c := range cols {
				if d := value.Compare(a[c], b[c]); d != 0 {
					return d
				}
			}
			return 0
		})
		if m := obs.M(); m != nil {
			m.Exec.RowsSorted.Add(int64(len(out.Rows)))
		}
		return nil
	}

	nk := len(keys)
	slab := make([]value.Value, len(out.Rows)*nk)
	keyed := make([]keyedRow, len(out.Rows))
	for i, row := range out.Rows {
		if err := pollCtx(ctx, i); err != nil {
			return err
		}
		kv := slab[i*nk : (i+1)*nk : (i+1)*nk]
		for ki := range keys {
			if k := &keys[ki]; k.isSrc {
				kv[ki] = k.onSrc.eval(src, i, nil, 0)
			} else {
				kv[ki] = k.expr.eval(row)
			}
		}
		keyed[i] = keyedRow{key: kv, row: row}
	}
	sorted, err := sortKeyed(ctx, keyed, budget)
	if err != nil {
		return err
	}
	if m := obs.M(); m != nil {
		m.Exec.RowsSorted.Add(int64(len(sorted)))
	}
	for i := range sorted {
		out.Rows[i] = sorted[i].row
	}
	return nil
}

// evalFromWhere evaluates a comma-separated FROM list under a WHERE clause.
// Single-relation conjuncts filter early; equality conjuncts between two
// relations become hash-join keys chosen greedily; everything left over is
// applied as a residual filter. This mirrors what any real target RDBMS
// does with the paper's generated queries — without it, comma joins over
// TPC-H would be quadratic cross products. need lists the references the
// caller evaluates over the result; each join keeps only the columns they
// and the conjuncts not yet applied can resolve to.
func evalFromWhere(ctx context.Context, cat Catalog, from []sqlast.TableExpr, where sqlast.Expr, need []*sqlast.ColumnRef) (*rel, error) {
	if len(from) == 0 {
		// A FROM-less select produces one row so literal selects work.
		if where != nil {
			return nil, fmt.Errorf("sqlexec: where clause without from clause")
		}
		return &rel{n: 1}, nil
	}

	conjs := sqlast.Conjuncts(where)
	used := make([]bool, len(conjs))
	// pending is need plus the references of every conjunct not yet applied.
	pending := func() []*sqlast.ColumnRef {
		refs := need[:len(need):len(need)]
		for ci, c := range conjs {
			if !used[ci] {
				refs = sqlast.ColumnRefs(c, refs)
			}
		}
		return refs
	}

	rels := make([]*rel, len(from))
	entryNeed := pending()
	for i, te := range from {
		r, err := evalTable(ctx, cat, te, entryNeed)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}

	// Pre-filter conjuncts whose column references all live in a single
	// relation. Ownership is decided against the concatenation of all
	// relations' columns so that ambiguous references are never pushed.
	allCols := make([]Col, 0)
	bounds := make([]int, 0, len(rels)+1)
	for _, r := range rels {
		bounds = append(bounds, len(allCols))
		allCols = append(allCols, r.cols...)
	}
	bounds = append(bounds, len(allCols))
	owner := func(idx int) int {
		for i := 0; i < len(rels); i++ {
			if idx >= bounds[i] && idx < bounds[i+1] {
				return i
			}
		}
		return -1
	}
	for ci, c := range conjs {
		own := -1
		ok := true
		for _, cr := range sqlast.ColumnRefs(c, nil) {
			idx, err := resolve(allCols, cr.Table, cr.Column)
			if err != nil {
				ok = false // unknown or ambiguous: leave for the residual pass
				break
			}
			o := owner(idx)
			if own == -1 {
				own = o
			} else if own != o {
				ok = false // spans relations: a join predicate, not a filter
				break
			}
		}
		if ok && own >= 0 {
			pred, err := bind(c, rels[own].cols, len(rels[own].cols))
			if err != nil {
				continue
			}
			rels[own] = filterRel(rels[own], pred)
			used[ci] = true
		}
	}

	// Greedily hash-join relations connected by equality conjuncts.
	joined := rels[0]
	remaining := rels[1:]
	for len(remaining) > 0 {
		best := -1
		var keyConjs []int
		for ri, r := range remaining {
			var ks []int
			for ci, c := range conjs {
				if used[ci] {
					continue
				}
				if isEquiBetween(c, joined, r) {
					ks = append(ks, ci)
				}
			}
			if len(ks) > 0 {
				best = ri
				keyConjs = ks
				break
			}
		}
		if best < 0 {
			// No join predicate connects: cross product with the next one.
			best = 0
		}
		right := remaining[best]
		remaining = append(remaining[:best:best], remaining[best+1:]...)
		var on sqlast.Expr
		if len(keyConjs) > 0 {
			terms := make([]sqlast.Expr, 0, len(keyConjs))
			for _, ci := range keyConjs {
				terms = append(terms, conjs[ci])
				used[ci] = true
			}
			on = sqlast.MakeAnd(terms)
		}
		var err error
		joined, err = evalJoinRel(ctx, joined, right, sqlast.JoinInner, on, pending())
		if err != nil {
			return nil, err
		}
	}

	// Residual conjuncts.
	var residual []sqlast.Expr
	for ci, c := range conjs {
		if !used[ci] {
			residual = append(residual, c)
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
		return oneInput(x.cols, x.src, input{rows: x.ins[0].rows, ids: sel}, n)
	}
	out := &rel{cols: x.cols, src: x.src, ins: make([]input, len(x.ins)), n: n}
	block := make([]int32, len(x.ins)*n)
	for j := range x.ins {
		in := &x.ins[j]
		ids := block[j*n : (j+1)*n : (j+1)*n]
		for k, i := range sel {
			ids[k] = in.id(int(i))
		}
		out.ins[j] = input{rows: in.rows, ids: ids}
	}
	return out
}

// evalTable evaluates one FROM entry. need lists the references evaluated
// over its result; a join keeps only the columns they can resolve to.
// Base tables, CTEs and derived tables are scanned whole and in place.
func evalTable(ctx context.Context, cat Catalog, te sqlast.TableExpr, need []*sqlast.ColumnRef) (*rel, error) {
	switch te := te.(type) {
	case *sqlast.BaseTable:
		alias := te.Alias
		if alias == "" {
			alias = te.Name
		}
		// CTEs shadow stored tables within their WITH scope.
		if rp, ok := cat.(relProvider); ok {
			if r, found := rp.LookupRel(te.Name); found {
				cols := make([]Col, len(r.Cols))
				for i, c := range r.Cols {
					cols[i] = Col{Qual: alias, Name: c.Name}
				}
				return scan(cols, r.Rows), nil
			}
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
			m.Exec.RowsScanned.Add(int64(len(t.Rows)))
		}
		return scan(cols, t.Rows), nil
	case *sqlast.Derived:
		inner, err := evalQuery(ctx, cat, te.Query)
		if err != nil {
			return nil, err
		}
		cols := make([]Col, len(inner.Cols))
		for i, c := range inner.Cols {
			cols[i] = Col{Qual: te.Alias, Name: c.Name}
		}
		return scan(cols, inner.Rows), nil
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

// isEquiBetween reports whether c is "a = b" with one side in l and the
// other in r.
func isEquiBetween(c sqlast.Expr, l, r *rel) bool {
	cmp, ok := c.(*sqlast.Compare)
	if !ok || cmp.Op != sqlast.OpEq {
		return false
	}
	lc, lok := cmp.L.(*sqlast.ColumnRef)
	rc, rok := cmp.R.(*sqlast.ColumnRef)
	if !lok || !rok {
		return false
	}
	inL := func(cr *sqlast.ColumnRef) bool { _, err := resolve(l.cols, cr.Table, cr.Column); return err == nil }
	inR := func(cr *sqlast.ColumnRef) bool { _, err := resolve(r.cols, cr.Table, cr.Column); return err == nil }
	return inL(lc) && inR(rc) && !inR(lc) && !inL(rc) ||
		inR(lc) && inL(rc) && !inL(lc) && !inR(rc)
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
			out.ins[j] = input{rows: in.rows, ids: ids}
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
		out.ins[j] = input{rows: in.rows, ids: ids}
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
		// Hash join: build on the right, probe from the left. NULL keys
		// never match per SQL equality semantics. The build side's
		// composite keys are written back to back into one string, so the
		// map's keys are substrings of it; the map holds each distinct
		// key's first row and next chains the rest. Neither side allocates
		// per row: the probe reuses one scratch buffer and looks the map up
		// through the allocation-free map[string(buf)] form.
		// A first pass measures the keys, so the string is allocated once.
		bounds := make([]int32, r.n+1) // row ri's key is all[bounds[ri]:bounds[ri+1]]
		var scratch []byte
		for ri := 0; ri < r.n; ri++ {
			if err := pollCtx(ctx, ri); err != nil {
				return err
			}
			n := 0
			if passes(rightPred, r, ri) {
				key, ok := appendHashKey(scratch[:0], r, rightKeys, ri)
				scratch = key
				if ok {
					n = len(key)
				}
			}
			bounds[ri+1] = bounds[ri] + int32(n)
		}
		var keys strings.Builder
		keys.Grow(int(bounds[r.n]))
		for ri := 0; ri < r.n; ri++ {
			if bounds[ri+1] > bounds[ri] {
				scratch, _ = appendHashKey(scratch[:0], r, rightKeys, ri)
				keys.Write(scratch)
			}
		}
		all := keys.String()
		head := make(map[string]int32, r.n)
		next := make([]int32, r.n)
		// Inserting from the last row leaves every chain in ascending
		// row order.
		for ri := r.n - 1; ri >= 0; ri-- {
			k := all[bounds[ri]:bounds[ri+1]]
			if k == "" {
				continue // filtered out, or a NULL key
			}
			h, ok := head[k]
			if !ok {
				h = -1
			}
			next[ri] = h
			head[k] = int32(ri)
		}
		for li := 0; li < l.n; li++ {
			if err := pollCtx(ctx, li); err != nil {
				return err
			}
			if !passes(leftPred, l, li) {
				continue
			}
			key, ok := appendHashKey(scratch[:0], l, leftKeys, li)
			scratch = key
			if !ok {
				continue
			}
			h, ok := head[string(key)]
			if !ok {
				continue
			}
			for ri := h; ri >= 0; ri = next[ri] {
				record(li, int(ri))
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

// appendHashKey appends the composite hash key of row i of x under the
// given key columns to dst; ok is false when any key value is NULL.
// Callers reuse dst as a scratch buffer across rows and look maps up
// through the allocation-free map[string(buf)] form, so the probe side of
// a hash join allocates nothing per row.
func appendHashKey(dst []byte, x *rel, keys []int, i int) ([]byte, bool) {
	for _, k := range keys {
		v := x.at(i, k)
		if v.IsNull() {
			return dst, false
		}
		dst = v.AppendHashKey(dst)
	}
	return dst, true
}
