package engine

import (
	"context"
	"fmt"
	"math"
	"strings"

	"silkroute/internal/obs"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlexec"
	"silkroute/internal/sqlparse"
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
	r, err := db.estQuery(q)
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

// estQuery models a query's result. It and the estimate methods it calls
// read only the database's statistics and sort budget, so concurrent
// estimate requests stay independent.
func (db *Database) estQuery(q sqlast.Query) (*estRel, error) {
	switch q := q.(type) {
	case *sqlast.Select:
		return db.estSelect(q)
	case *sqlast.Union:
		var out *estRel
		for _, b := range q.Branches {
			r, err := db.estSelect(b)
			if err != nil {
				return nil, err
			}
			if out == nil {
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
		if out == nil {
			return nil, fmt.Errorf("engine: estimate of empty union")
		}
		out.clampDistinct()
		db.addSortCost(out, q.OrderBy)
		return out, nil
	default:
		return nil, fmt.Errorf("engine: estimate of %T", q)
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

func (db *Database) estSelect(s *sqlast.Select) (*estRel, error) {
	src, err := db.estFromWhere(s.From, s.Where)
	if err != nil {
		return nil, err
	}
	out := &estRel{rows: src.rows, cost: src.cost}
	for _, item := range s.Items {
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sqlast.ColumnRef); ok {
				name = cr.Column
			}
		}
		col := estCol{Col: sqlexec.Col{Name: name}, distinct: 1, width: 9}
		switch e := item.Expr.(type) {
		case *sqlast.ColumnRef:
			if i, ok := findCol(src.cols, e.Table, e.Column); ok {
				col.distinct = src.cols[i].distinct
				col.width = src.cols[i].width
			}
		case *sqlast.Literal:
			col.width = float64(e.Val.WireSize())
		}
		out.cols = append(out.cols, col)
	}
	out.clampDistinct()
	// Projection materializes every output row.
	out.cost += out.rows * rowWork(out.width())
	db.addSortCost(out, s.OrderBy)
	return out, nil
}

// estFromWhere prices the plan sqlexec.PlanFrom makes of a FROM list and
// WHERE clause, the plan the executor runs: the entries' filters, the
// joins in the plan's order, then the residual conjuncts.
func (db *Database) estFromWhere(from []sqlast.TableExpr, where sqlast.Expr) (*estRel, error) {
	if len(from) == 0 {
		return &estRel{rows: 1}, nil
	}
	rels := make([]*estRel, len(from))
	cols := make([][]estCol, len(from))
	for i, te := range from {
		r, err := db.estTable(te)
		if err != nil {
			return nil, err
		}
		rels[i], cols[i] = r, r.cols
	}
	conjs := sqlast.Conjuncts(where)
	p := sqlexec.PlanFrom(cols, conjs)

	for ci, e := range p.Filter {
		if e < 0 {
			continue
		}
		r := rels[e]
		sel, _ := singleRelSelectivity(conjs[ci], r)
		r.rows *= sel
		if r.rows < 1 {
			r.rows = 1
		}
		r.clampDistinct()
	}

	joined := rels[p.Order[0]]
	for s := 1; s < len(p.Order); s++ {
		right := rels[p.Order[s]]
		// Most restrictive key only: composite keys are correlated (see
		// estJoin).
		sel := 1.0
		for ci, c := range conjs {
			if p.Step[ci] == s {
				if k, _ := equiSelectivity(c, joined, right); k < sel {
					sel = k
				}
			}
		}
		joined = joinRel(joined, right, joined.rows*right.rows*sel)
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

func (db *Database) estTable(te sqlast.TableExpr) (*estRel, error) {
	switch te := te.(type) {
	case *sqlast.BaseTable:
		alias := te.Alias
		if alias == "" {
			alias = te.Name
		}
		t, ok := db.Lookup(te.Name)
		if !ok {
			return nil, fmt.Errorf("engine: estimate of unknown table %q", te.Name)
		}
		st := t.Stats()
		r := &estRel{rows: float64(st.RowCount), cost: float64(st.RowCount)}
		for i, c := range t.Rel.Columns {
			r.cols = append(r.cols, estCol{
				Col:      sqlexec.Col{Qual: alias, Name: c.Name},
				distinct: math.Max(1, float64(st.Columns[i].Distinct)),
				width:    math.Max(1, st.Columns[i].AvgWidth),
			})
		}
		return r, nil
	case *sqlast.Derived:
		inner, err := db.estQuery(te.Query)
		if err != nil {
			return nil, err
		}
		for i := range inner.cols {
			inner.cols[i].Qual = te.Alias
		}
		return inner, nil
	case *sqlast.Join:
		l, err := db.estTable(te.L)
		if err != nil {
			return nil, err
		}
		r, err := db.estTable(te.R)
		if err != nil {
			return nil, err
		}
		return estJoin(l, r, te.Kind, te.On), nil
	default:
		return nil, fmt.Errorf("engine: estimate of %T", te)
	}
}

// estJoin estimates an explicit join node, handling the disjunctive ON
// conditions of unified plans by summing per-disjunct match estimates.
func estJoin(l, r *estRel, kind sqlast.JoinKind, on sqlast.Expr) *estRel {
	var inner float64
	if on == nil {
		inner = l.rows * r.rows
	} else {
		var disjuncts []sqlast.Expr
		if or, ok := on.(*sqlast.Or); ok {
			disjuncts = or.Terms
		} else {
			disjuncts = []sqlast.Expr{on}
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
			for _, c := range sqlast.Conjuncts(d) {
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
	return joinRel(l, r, rows)
}

// joinRel models the join of l and r that yields rows rows (at least one):
// both inputs are read, and every output row is charged at the full
// concatenated width of both sides' columns.
func joinRel(l, r *estRel, rows float64) *estRel {
	if rows < 1 {
		rows = 1
	}
	cols := append(append([]estCol{}, l.cols...), r.cols...)
	var w float64
	for _, c := range cols {
		w += c.width
	}
	out := &estRel{
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
