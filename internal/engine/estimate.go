package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"silkroute/internal/obs"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlexec"
	"silkroute/internal/sqlparse"
	"silkroute/internal/table"
)

// Estimate is the optimizer oracle's answer for one query: an abstract
// evaluation cost, a cardinality estimate, and an average result-row width
// in bytes. The paper's greedy algorithm consumes evaluation_cost and
// data_size = f(|attrs(q)| · cardinality(q)); DataSize derives the latter.
type Estimate struct {
	Cost  float64 // abstract evaluation cost units
	Rows  float64 // estimated result cardinality
	Width float64 // estimated average row width in bytes
}

// DataSize returns the estimated wire size of the result in bytes.
func (e Estimate) DataSize() float64 { return e.Rows * e.Width }

// EstimateSQL estimates the cost of a SQL string without executing it.
// Estimation is pure computation over table statistics, so it takes no
// context; the wire layer applies its own request deadline around it.
func (db *Database) EstimateSQL(sql string) (Estimate, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return Estimate{}, err
	}
	return db.EstimateQuery(context.Background(), q)
}

// EstimateQuery estimates an already-parsed query. Every call increments
// the estimate-request counter that §5.1's experiment reports. The context
// lets the database stand in for a remote oracle (plan.Oracle) whose
// estimate requests are network calls; a local estimate only checks it on
// entry.
func (db *Database) EstimateQuery(ctx context.Context, q sqlast.Query) (Estimate, error) {
	if err := ctx.Err(); err != nil {
		return Estimate{}, err
	}
	if m := obs.M(); m != nil {
		m.Exec.EstimatesServed.Inc()
	}
	e := db.newEstimator(q)
	r, err := e.query(q)
	if err != nil {
		return Estimate{}, err
	}
	// Every statement pays a fixed submit/parse/plan overhead; this is what
	// penalizes plans with many tiny queries (the fully partitioned end of
	// the paper's spectrum).
	return Estimate{Cost: perQueryOverhead + r.cost, Rows: r.rows, Width: r.width()}, nil
}

// estCol is the estimator's knowledge about one column of an intermediate
// result. Its Col names it, which is all sqlexec's planner reads of it.
type estCol struct {
	sqlexec.Col
	distinct float64
	width    float64
}

// estRel is the estimator's model of an intermediate relation.
type estRel struct {
	cols []estCol
	rows float64
	cost float64
}

// stored is one relation of the database: its table, and its column
// estimates as of the table's current statistics.
type stored struct {
	*table.Table
	est atomic.Pointer[tableEst]
}

// tableEst is a table's column estimates, derived once from one Stats and
// never changed after: each column's distinct count and width, the
// qualifier left for each request to set on its copy.
type tableEst struct {
	stats *table.Stats
	cols  []estCol
}

// estimates returns the column estimates of the table's current
// statistics, deriving them when an Insert has replaced the statistics.
// Concurrent requests may derive them twice; either result is the same.
func (s *stored) estimates() *tableEst {
	st := s.Stats()
	if e := s.est.Load(); e != nil && e.stats == st {
		return e
	}
	e := &tableEst{stats: st, cols: make([]estCol, len(s.Rel.Columns))}
	for i, c := range s.Rel.Columns {
		e.cols[i] = estCol{
			Col:      sqlexec.Col{Name: c.Name},
			distinct: math.Max(1, float64(st.Columns[i].Distinct)),
			width:    math.Max(1, st.Columns[i].AvgWidth),
		}
	}
	s.est.Store(e)
	return e
}

func (r *estRel) width() float64 {
	var w float64
	for _, c := range r.cols {
		w += c.width
	}
	return w
}

// clampDistinct caps every column's distinct count at the row estimate.
func (r *estRel) clampDistinct() {
	for i := range r.cols {
		if r.cols[i].distinct > r.rows {
			r.cols[i].distinct = r.rows
		}
		if r.cols[i].distinct < 1 {
			r.cols[i].distinct = 1
		}
	}
}

// findCol resolves a column reference leniently (first match wins; the
// estimator prefers an answer over an error, like a real optimizer's
// statistics layer).
func findCol(cols []estCol, qual, name string) (int, bool) {
	for i, c := range cols {
		if c.Name == "" || !strings.EqualFold(c.Name, name) {
			continue
		}
		if qual != "" && !strings.EqualFold(c.Qual, qual) {
			continue
		}
		return i, true
	}
	return 0, false
}

const (
	defaultSelectivity = 1.0 / 3.0 // non-equality predicates
	sortCostFactor     = 1.0       // per row·log2(rows)
	perQueryOverhead   = 50.0      // parse/plan/submit overhead per statement
	// widthCostDivisor converts row width into a per-row work multiplier.
	// What it prices is the executor's sort and the reading of its
	// result: they compare and evaluate every output value, so wide rows
	// cost proportionally more than narrow ones, which is what makes
	// over-merged unified queries expensive. A join carries one row ID per input, not its columns, so
	// charging joins at their full concatenated width is known to be too
	// high. Every join the estimator prices, a step of sqlexec's FROM plan
	// or an explicit JOIN, is charged in joinRel, so the re-fit of the cost
	// model to the executor (ROADMAP.md) is one change there.
	widthCostDivisor = 32.0
)

// rowWork returns the per-row processing weight for a given row width.
func rowWork(width float64) float64 { return 1 + width/widthCostDivisor }

// estimator is one estimate request's scratch space, sized for the query
// up front, reused across the request's selects and never shared:
// concurrent requests each have their own. rels is a stack of FROM
// entries, since a derived table's estimate recurses while its enclosing
// FROM list is half estimated; entries and conjs serve one FROM list or ON
// condition at a time, after any recursion.
type estimator struct {
	db      *Database
	cols    []estCol // every column the request builds, carved in turn
	missed  int      // column slices cols could not serve (a miscount)
	rels    []estRel
	entries [][]estCol
	conjs   []sqlast.Expr
}

// queryCount sizes an estimator's scratch space for one query, over all
// its selects: the FROM entries, the conjuncts of the WHERE and ON
// conditions, and the columns the estimate builds.
type queryCount struct {
	db                   *Database
	entries, conjs, cols int
}

// query counts a query and returns its width in columns.
func (n *queryCount) query(q sqlast.Query) int {
	switch q := q.(type) {
	case *sqlast.Select:
		return n.sel(q)
	case *sqlast.Union:
		w := 0
		for i, b := range q.Branches {
			if wb := n.sel(b); i == 0 {
				w = wb
			}
		}
		return w
	}
	return 0
}

func (n *queryCount) sel(s *sqlast.Select) int {
	n.entries += len(s.From)
	n.cond(s.Where)
	w := 0
	for _, te := range s.From {
		w += n.table(te)
	}
	if len(s.From) > 1 {
		n.cols += w // the joins' columns
	}
	n.cols += len(s.Items)
	return len(s.Items)
}

func (n *queryCount) table(te sqlast.TableExpr) int {
	switch te := te.(type) {
	case *sqlast.BaseTable:
		if t, ok := n.db.lookup(te.Name); ok {
			n.cols += len(t.Rel.Columns)
			return len(t.Rel.Columns)
		}
	case *sqlast.Derived:
		return n.query(te.Query)
	case *sqlast.Join:
		w := n.table(te.L) + n.table(te.R)
		n.cols += w
		n.cond(te.On)
		return w
	}
	return 0
}

func (n *queryCount) cond(e sqlast.Expr) {
	switch e := e.(type) {
	case nil:
	case *sqlast.And:
		for _, t := range e.Terms {
			n.cond(t)
		}
	case *sqlast.Or:
		for _, t := range e.Terms {
			n.cond(t)
		}
	default:
		n.conjs++
	}
}

// newEstimator sizes an estimator for q.
func (db *Database) newEstimator(q sqlast.Query) estimator {
	n := queryCount{db: db}
	n.query(q)
	return estimator{
		db:      db,
		cols:    make([]estCol, n.cols),
		rels:    make([]estRel, 0, n.entries),
		entries: make([][]estCol, 0, n.entries),
		conjs:   make([]sqlast.Expr, 0, n.conjs),
	}
}

// newCols carves n columns from the request's column slab.
func (e *estimator) newCols(n int) []estCol {
	if len(e.cols) < n {
		e.missed++
		return make([]estCol, n)
	}
	c := e.cols[:n:n]
	e.cols = e.cols[n:]
	return c
}

// query models a query's result. It and the methods it calls read only
// the database's statistics and sort budget, so concurrent estimate
// requests stay independent.
func (e *estimator) query(q sqlast.Query) (estRel, error) {
	switch q := q.(type) {
	case *sqlast.Select:
		return e.selectRel(q)
	case *sqlast.Union:
		var out estRel
		for i, b := range q.Branches {
			r, err := e.selectRel(b)
			if err != nil {
				return estRel{}, err
			}
			if i == 0 {
				out = r
				continue
			}
			out.rows += r.rows
			out.cost += r.cost
			for i := range out.cols {
				if i < len(r.cols) {
					out.cols[i].distinct += r.cols[i].distinct
					if r.cols[i].width > out.cols[i].width {
						out.cols[i].width = r.cols[i].width
					}
				}
			}
		}
		if len(q.Branches) == 0 {
			return estRel{}, fmt.Errorf("engine: estimate of empty union")
		}
		out.clampDistinct()
		e.db.addSortCost(&out, q.OrderBy)
		return out, nil
	default:
		return estRel{}, fmt.Errorf("engine: estimate of %T", q)
	}
}

func (db *Database) addSortCost(r *estRel, order []sqlast.OrderItem) {
	if len(order) == 0 || r.rows < 2 {
		return
	}
	r.cost += sortCostFactor * r.rows * math.Log2(r.rows) * rowWork(r.width())
	// A sort larger than the memory budget spills: charge the run
	// write-out and merge read-back, proportional to the spilled bytes.
	if db.SortBudgetRows > 0 && r.rows > float64(db.SortBudgetRows) {
		r.cost += spillIOWeight * 2 * r.rows * r.width()
	}
}

// spillIOWeight converts spilled bytes to cost units; calibrated so that a
// spilling sort dominates the in-memory n·log n term, as disk I/O does.
const spillIOWeight = 0.5

func (e *estimator) selectRel(s *sqlast.Select) (estRel, error) {
	src, err := e.fromWhere(s.From, s.Where)
	if err != nil {
		return estRel{}, err
	}
	out := estRel{cols: e.newCols(len(s.Items)), rows: src.rows, cost: src.cost}
	for i, item := range s.Items {
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlast.ColumnRef); ok {
				name = cr.Column
			}
		}
		col := estCol{Col: sqlexec.Col{Name: name}, distinct: 1, width: 9}
		switch x := item.Expr.(type) {
		case *sqlast.ColumnRef:
			if j, ok := findCol(src.cols, x.Table, x.Column); ok {
				col.distinct = src.cols[j].distinct
				col.width = src.cols[j].width
			}
		case *sqlast.Literal:
			col.width = float64(x.Val.WireSize())
		}
		out.cols[i] = col
	}
	out.clampDistinct()
	// Projection materializes every output row.
	out.cost += out.rows * rowWork(out.width())
	e.db.addSortCost(&out, s.OrderBy)
	return out, nil
}

// fromWhere prices the plan sqlexec.PlanFrom makes of a FROM list and
// WHERE clause, the plan the executor runs: the entries' filters, the
// joins in the plan's order, then the residual conjuncts. The joins write
// their columns into one slice for the whole list: each step's output is
// the previous step's columns, in place, followed by the next entry's.
func (e *estimator) fromWhere(from []sqlast.TableExpr, where sqlast.Expr) (estRel, error) {
	if len(from) == 0 {
		return estRel{rows: 1}, nil
	}
	base := len(e.rels)
	defer func() { e.rels = e.rels[:base] }()
	width := 0
	for _, te := range from {
		r, err := e.table(te)
		if err != nil {
			return estRel{}, err
		}
		e.rels = append(e.rels, r)
		width += len(r.cols)
	}
	rels := e.rels[base:]
	e.entries = e.entries[:0]
	for _, r := range rels {
		e.entries = append(e.entries, r.cols)
	}
	e.conjs = sqlast.AppendConjuncts(e.conjs[:0], where)
	conjs := e.conjs
	p := sqlexec.PlanFrom(e.entries, conjs)

	for ci, f := range p.Filter {
		if f < 0 {
			continue
		}
		r := &rels[f]
		sel, _ := singleRelSelectivity(conjs[ci], r)
		r.rows *= sel
		if r.rows < 1 {
			r.rows = 1
		}
		r.clampDistinct()
	}

	joined := rels[p.Order[0]]
	var cols []estCol
	if len(p.Order) > 1 {
		cols = e.newCols(width)
	}
	for s := 1; s < len(p.Order); s++ {
		right := &rels[p.Order[s]]
		// Most restrictive key only: composite keys are correlated (see
		// estJoin).
		sel := 1.0
		for ci, c := range conjs {
			if p.Step[ci] == s {
				if k, _ := equiSelectivity(c, &joined, right); k < sel {
					sel = k
				}
			}
		}
		joined = joinRel(&joined, right, joined.rows*right.rows*sel, cols)
	}

	for ci := range conjs {
		if p.Residual(ci) {
			joined.rows *= defaultSelectivity
			if joined.rows < 1 {
				joined.rows = 1
			}
		}
	}
	joined.clampDistinct()
	return joined, nil
}

func (e *estimator) table(te sqlast.TableExpr) (estRel, error) {
	switch te := te.(type) {
	case *sqlast.BaseTable:
		alias := te.Alias
		if alias == "" {
			alias = te.Name
		}
		t, ok := e.db.lookup(te.Name)
		if !ok {
			return estRel{}, fmt.Errorf("engine: estimate of unknown table %q", te.Name)
		}
		est := t.estimates()
		r := estRel{cols: e.newCols(len(est.cols)), rows: float64(est.stats.RowCount), cost: float64(est.stats.RowCount)}
		for i, c := range est.cols {
			c.Qual = alias
			r.cols[i] = c
		}
		return r, nil
	case *sqlast.Derived:
		inner, err := e.query(te.Query)
		if err != nil {
			return estRel{}, err
		}
		for i := range inner.cols {
			inner.cols[i].Qual = te.Alias
		}
		return inner, nil
	case *sqlast.Join:
		l, err := e.table(te.L)
		if err != nil {
			return estRel{}, err
		}
		r, err := e.table(te.R)
		if err != nil {
			return estRel{}, err
		}
		return e.join(&l, &r, te.Kind, te.On), nil
	default:
		return estRel{}, fmt.Errorf("engine: estimate of %T", te)
	}
}

// join estimates an explicit join node, handling the disjunctive ON
// conditions of unified plans by summing per-disjunct match estimates.
func (e *estimator) join(l, r *estRel, kind sqlast.JoinKind, on sqlast.Expr) estRel {
	var inner float64
	if on == nil {
		inner = l.rows * r.rows
	} else {
		disjuncts := []sqlast.Expr{on}
		if or, ok := on.(*sqlast.Or); ok {
			disjuncts = or.Terms
		}
		for _, d := range disjuncts {
			// Composite-key joins (e.g. lineitem ⋈ partsupp on partkey and
			// suppkey) have correlated predicates: multiplying their
			// selectivities independently underestimates the result by
			// orders of magnitude. Use the single most restrictive
			// cross-relation predicate, and fold one-sided filters in
			// multiplicatively (those are genuine restrictions).
			joinSel := 1.0
			filterSel := 1.0
			e.conjs = sqlast.AppendConjuncts(e.conjs[:0], d)
			for _, c := range e.conjs {
				if s, ok := equiSelectivity(c, l, r); ok {
					if s < joinSel {
						joinSel = s
					}
				} else if s, ok := singleRelSelectivity(c, l); ok {
					filterSel *= s
				} else if s, ok := singleRelSelectivity(c, r); ok {
					filterSel *= s
				} else {
					filterSel *= defaultSelectivity
				}
			}
			inner += l.rows * r.rows * joinSel * filterSel
		}
		if max := l.rows * r.rows; inner > max {
			inner = max
		}
	}
	rows := inner
	if kind == sqlast.JoinLeftOuter && rows < l.rows {
		rows = l.rows
	}
	return joinRel(l, r, rows, e.newCols(len(l.cols)+len(r.cols)))
}

// joinRel models the join of l and r that yields rows rows (at least one):
// both inputs are read, and every output row is charged at the full
// concatenated width of both sides' columns. The output columns are l's
// then r's, written into dst, which may begin with l's own columns.
func joinRel(l, r *estRel, rows float64, dst []estCol) estRel {
	if rows < 1 {
		rows = 1
	}
	cols := dst[:len(l.cols)+len(r.cols)]
	copy(cols, l.cols)
	copy(cols[len(l.cols):], r.cols)
	var w float64
	for _, c := range cols {
		w += c.width
	}
	out := estRel{
		cols: cols,
		rows: rows,
		cost: l.cost + r.cost + l.rows + r.rows + rows*rowWork(w),
	}
	out.clampDistinct()
	return out
}

// equiSelectivity recognizes "a = b" with one side in l and the other in r
// and returns the classic 1/max(distinct) selectivity.
func equiSelectivity(c sqlast.Expr, l, r *estRel) (float64, bool) {
	cmp, ok := c.(*sqlast.Compare)
	if !ok || cmp.Op != sqlast.OpEq {
		return 0, false
	}
	lc, lok := cmp.L.(*sqlast.ColumnRef)
	rc, rok := cmp.R.(*sqlast.ColumnRef)
	if !lok || !rok {
		return 0, false
	}
	li, inL := findCol(l.cols, lc.Table, lc.Column)
	ri, inR := findCol(r.cols, rc.Table, rc.Column)
	if !inL || !inR {
		ri2, inR2 := findCol(r.cols, lc.Table, lc.Column)
		li2, inL2 := findCol(l.cols, rc.Table, rc.Column)
		if !inR2 || !inL2 {
			return 0, false
		}
		li, ri = li2, ri2
	}
	d := math.Max(l.cols[li].distinct, r.cols[ri].distinct)
	if d < 1 {
		d = 1
	}
	return 1 / d, true
}

// singleRelSelectivity estimates a predicate whose references all resolve
// in one relation: equality with a literal uses 1/distinct, other
// comparisons use the default selectivity.
func singleRelSelectivity(c sqlast.Expr, r *estRel) (float64, bool) {
	var buf [8]*sqlast.ColumnRef
	refs := sqlast.ColumnRefs(c, buf[:0])
	if len(refs) == 0 {
		return 0, false
	}
	for _, cr := range refs {
		if _, ok := findCol(r.cols, cr.Table, cr.Column); !ok {
			return 0, false
		}
	}
	if cmp, ok := c.(*sqlast.Compare); ok && cmp.Op == sqlast.OpEq {
		if cr, ok := cmp.L.(*sqlast.ColumnRef); ok {
			if _, isLit := cmp.R.(*sqlast.Literal); isLit {
				if i, ok := findCol(r.cols, cr.Table, cr.Column); ok {
					return 1 / math.Max(1, r.cols[i].distinct), true
				}
			}
		}
		if cr, ok := cmp.R.(*sqlast.ColumnRef); ok {
			if _, isLit := cmp.L.(*sqlast.Literal); isLit {
				if i, ok := findCol(r.cols, cr.Table, cr.Column); ok {
					return 1 / math.Max(1, r.cols[i].distinct), true
				}
			}
		}
	}
	return defaultSelectivity, true
}
