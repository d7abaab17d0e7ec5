// Package sqlgen translates a partitioned (optionally reduced) view tree
// into SQL, one query per component (§3.4 of the paper).
//
// Two generation styles are implemented:
//
//   - OuterJoin (SilkRoute's native style): each group's node query is
//     left-outer-joined with the outer union of its children's subqueries —
//     R ⟕ (S ∪ T). When every child edge guarantees at least one child
//     (labels '1'/'+'), the outer join degenerates to an inner join, per
//     the paper's footnote.
//   - OuterUnion (the comparator from Shanmugasundaram et al. [9]): one
//     branch per root-to-leaf group chain, each a chain of outer joins,
//     combined by outer union — (R ⟕ S) ∪ (R ⟕ T).
//
// Every generated query sorts by the structural key L1, V(1,*), L2,
// V(2,*), …, so the tagger can merge the streams and emit XML in constant
// space.
//
// One deliberate simplification relative to the paper's §3.4 example: the
// paper joins each union branch on that branch's own key columns, which
// forces a disjunctive ON condition ("(L2=1 and …) or (L2=2 and …)").
// Because automatically-introduced Skolem arguments always include every
// ancestor's keys, all branches share the parent's key columns, and a
// single conjunctive ON over those columns is equivalent. The engine
// executes disjunctive ON conditions too; the generator simply never needs
// to emit one.
package sqlgen

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"silkroute/internal/rxl"
	"silkroute/internal/sqlast"
	"silkroute/internal/viewtree"
)

// Style selects the generation strategy.
type Style uint8

// Generation styles.
const (
	OuterJoin Style = iota
	OuterUnion
)

// String names the style.
func (s Style) String() string {
	if s == OuterUnion {
		return "outer-union"
	}
	return "outer-join"
}

// StreamCol describes one output column of a generated query: either a
// dynamic L column for a branching level, or a Skolem-term variable.
type StreamCol struct {
	Name  string
	IsL   bool
	Level int             // set when IsL
	Ref   viewtree.VarRef // set when !IsL
	// Pos is the column's position in the tree's structural key, -1 for a
	// filler column such as "_k".
	Pos int
}

// Stream is one generated SQL query plus the metadata the tagger needs to
// interpret its rows.
type Stream struct {
	Comp  *viewtree.Component
	Query sqlast.Query
	Cols  []StreamCol

	// bodySQL is the query printed before the structural ORDER BY was
	// attached. Resume queries (ResumeSQL) wrap the body in a derived
	// table, and the SQL grammar forbids ORDER BY inside derived tables,
	// so the body text is captured up front instead of reconstructed by
	// mutating the shared AST.
	bodySQL string
	// outNames are the query's output column names in position order.
	outNames []string
	// sortKey holds the output positions of the structural sort key, in
	// ORDER BY order.
	sortKey []int
}

// SQL renders the stream's query as SQL text.
func (s *Stream) SQL() string { return sqlast.Print(s.Query) }

// Generate produces one Stream per component.
func Generate(t *viewtree.Tree, comps []*viewtree.Component, style Style) ([]*Stream, error) {
	out := make([]*Stream, 0, len(comps))
	for _, c := range comps {
		g := &gen{tree: t, comp: c}
		var (
			s   *Stream
			err error
		)
		if style == OuterUnion {
			s, err = g.genOuterUnion()
		} else {
			s, err = g.genOuterJoin()
		}
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// colID identifies a logical output column during generation.
type colID struct {
	isL   bool
	level int
	ref   viewtree.VarRef
}

// name returns a column's SQL name, computed once per colID: generation
// asks for the same names many times over.
func (g *gen) name(c colID) string {
	if n, ok := g.names[c]; ok {
		return n
	}
	var n string
	if c.isL {
		n = "L" + strconv.Itoa(c.level)
	} else {
		n = mangle(c.ref)
	}
	if g.names == nil {
		g.names = make(map[colID]string)
	}
	g.names[c] = n
	return n
}

// varName returns the SQL name of a variable's column.
func (g *gen) varName(r viewtree.VarRef) string { return g.name(colID{ref: r}) }

// mangle turns a variable reference into a SQL identifier: s.suppkey →
// v_s_suppkey. Tuple-variable aliases are globally unique, so names never
// collide.
func mangle(r viewtree.VarRef) string {
	return "v_" + strings.ToLower(r.Var) + "_" + strings.ToLower(r.Field)
}

type gen struct {
	tree *viewtree.Tree
	comp *viewtree.Component
	n    int // derived-table alias counter

	names map[colID]string
}

func (g *gen) alias(prefix string) string {
	g.n++
	return prefix + strconv.Itoa(g.n)
}

// pos returns a column's position in the tree's structural key.
func (g *gen) pos(c colID) int {
	if c.isL {
		return g.tree.LPos[c.level-1]
	}
	vi, _ := g.tree.VarIndex(c.ref)
	return vi.Pos
}

// subtreeCols computes the canonical column set of a group subtree: the
// group's args, one dynamic L column per child-edge level, and the child
// subtrees' columns.
func (g *gen) subtreeCols(grp *viewtree.Group) []colID {
	seen := make(map[colID]bool)
	var cols []colID
	add := func(c colID) {
		if !seen[c] {
			seen[c] = true
			cols = append(cols, c)
		}
	}
	var walk func(*viewtree.Group)
	walk = func(grp *viewtree.Group) {
		for _, a := range grp.Args {
			add(colID{ref: a})
		}
		for _, ge := range grp.Children {
			add(colID{isL: true, level: ge.Child.Root.Level()})
			walk(ge.Child)
		}
	}
	walk(grp)
	slices.SortFunc(cols, func(a, b colID) int { return g.pos(a) - g.pos(b) })
	return cols
}

// nodeSelect builds the plain select computing one group's node query:
// its combined rule body with the group args projected out.
func (g *gen) nodeSelect(grp *viewtree.Group) *sqlast.Select {
	s := &sqlast.Select{}
	for _, a := range grp.Rule.Atoms {
		s.From = append(s.From, &sqlast.BaseTable{Name: a.Rel, Alias: a.Var})
	}
	var conj []sqlast.Expr
	for _, c := range grp.Rule.Conds {
		conj = append(conj, condExpr(c))
	}
	s.Where = sqlast.MakeAnd(conj)
	for _, a := range grp.Args {
		s.Items = append(s.Items, sqlast.SelectItem{
			Expr:  sqlast.Col(a.Var, a.Field),
			Alias: g.varName(a),
		})
	}
	if len(s.Items) == 0 {
		// A constant element with no variables still needs one column so
		// the select is well-formed; the tagger ignores it.
		s.Items = append(s.Items, sqlast.SelectItem{Expr: sqlast.IntLit(1), Alias: "_k"})
	}
	return s
}

// genGroup recursively builds the outer-join query of a group subtree. The
// result's output columns are exactly subtreeCols(grp) by name.
func (g *gen) genGroup(grp *viewtree.Group) (*sqlast.Select, error) {
	if len(grp.Children) == 0 {
		return g.nodeSelect(grp), nil
	}

	// Children columns: everything in the subtree except this group's own
	// args (those come from the base select) — but the join keys must stay
	// in the union's projection so the ON condition can reference them on
	// the child side.
	keys := g.joinKeys(grp)
	keySet := make(map[colID]bool, len(keys))
	for _, k := range keys {
		keySet[colID{ref: k}] = true
	}
	own := make(map[colID]bool)
	for _, a := range grp.Args {
		own[colID{ref: a}] = true
	}
	var childCols []colID
	for _, c := range g.subtreeCols(grp) {
		if !own[c] || keySet[c] {
			childCols = append(childCols, c)
		}
	}

	// Build the union of child branches, each padded to childCols.
	var branches []*sqlast.Select
	for _, ge := range grp.Children {
		sub, err := g.genGroup(ge.Child)
		if err != nil {
			return nil, err
		}
		subAlias := g.alias("c")
		subCols := make(map[string]bool)
		for _, c := range g.subtreeCols(ge.Child) {
			subCols[g.name(c)] = true
		}
		branch := &sqlast.Select{From: []sqlast.TableExpr{&sqlast.Derived{Query: sub, Alias: subAlias}}}
		level := ge.Child.Root.Level()
		ordinal := int64(ge.Child.Root.Ordinal())
		for _, c := range childCols {
			var e sqlast.Expr
			switch {
			case c.isL && c.level == level:
				e = sqlast.IntLit(ordinal)
			case subCols[g.name(c)]:
				e = sqlast.Col(subAlias, g.name(c))
			default:
				e = sqlast.NullLit()
			}
			branch.Items = append(branch.Items, sqlast.SelectItem{Expr: e, Alias: g.name(c)})
		}
		branches = append(branches, branch)
	}
	var childQuery sqlast.Query
	if len(branches) == 1 {
		childQuery = branches[0]
	} else {
		childQuery = &sqlast.Union{Branches: branches}
	}

	// Join base with the children. The join keys are the parent-side
	// node's key args, which every child branch carries by construction.
	// The outer join degenerates to an inner join when every child is
	// guaranteed to exist (paper footnote in §3.5).
	baseAlias := g.alias("b")
	qAlias := g.alias("q")
	joinKind := sqlast.JoinLeftOuter
	allGuaranteed := true
	for _, ge := range grp.Children {
		if !ge.Label.AtLeastOne() {
			allGuaranteed = false
		}
	}
	if allGuaranteed {
		joinKind = sqlast.JoinInner
	}
	var on []sqlast.Expr
	for _, k := range keys {
		on = append(on, sqlast.Eq(sqlast.Col(baseAlias, g.varName(k)), sqlast.Col(qAlias, g.varName(k))))
	}
	join := &sqlast.Join{
		Kind: joinKind,
		L:    &sqlast.Derived{Query: g.nodeSelect(grp), Alias: baseAlias},
		R:    &sqlast.Derived{Query: childQuery, Alias: qAlias},
		On:   sqlast.MakeAnd(on),
	}

	out := &sqlast.Select{From: []sqlast.TableExpr{join}}
	for _, a := range grp.Args {
		out.Items = append(out.Items, sqlast.SelectItem{
			Expr:  sqlast.Col(baseAlias, g.varName(a)),
			Alias: g.varName(a),
		})
	}
	for _, c := range childCols {
		if own[c] {
			continue // join keys already projected from the base side
		}
		out.Items = append(out.Items, sqlast.SelectItem{
			Expr:  sqlast.Col(qAlias, g.name(c)),
			Alias: g.name(c),
		})
	}
	return out, nil
}

// joinKeys returns the deduplicated key args shared between a group and
// all of its children: the union of the edge parent nodes' key args, every
// one of which appears in each child subtree (Skolem args accumulate down
// the tree).
func (g *gen) joinKeys(grp *viewtree.Group) []viewtree.VarRef {
	seen := make(map[viewtree.VarRef]bool)
	var keys []viewtree.VarRef
	for _, ge := range grp.Children {
		for _, k := range ge.ParentNode.KeyArgs {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	// Only keys the child actually carries can join; with auto-Skolem
	// terms that is all of them, but explicit Skolem terms may drop some.
	var filtered []viewtree.VarRef
	for _, k := range keys {
		ok := true
		for _, ge := range grp.Children {
			if !groupCarries(ge.Child, k) {
				ok = false
				break
			}
		}
		if ok {
			filtered = append(filtered, k)
		}
	}
	return filtered
}

func groupCarries(grp *viewtree.Group, k viewtree.VarRef) bool {
	for _, a := range grp.Args {
		if a == k {
			return true
		}
	}
	return false
}

// genOuterJoin generates the component's outer-join query with the
// structural ORDER BY.
func (g *gen) genOuterJoin() (*Stream, error) {
	sel, err := g.genGroup(g.comp.Root)
	if err != nil {
		return nil, err
	}
	return g.finish(sel)
}

// genOuterUnion generates the component in the [9] style: one branch per
// root-to-leaf group chain, each a chain of left outer joins.
func (g *gen) genOuterUnion() (*Stream, error) {
	var chains [][]*viewtree.Group
	var walk func(path []*viewtree.Group, grp *viewtree.Group)
	walk = func(path []*viewtree.Group, grp *viewtree.Group) {
		path = append(append([]*viewtree.Group{}, path...), grp)
		if len(grp.Children) == 0 {
			chains = append(chains, path)
			return
		}
		for _, ge := range grp.Children {
			walk(path, ge.Child)
		}
	}
	walk(nil, g.comp.Root)

	all := g.subtreeCols(g.comp.Root)
	var branches []*sqlast.Select
	for _, chain := range chains {
		branch, err := g.genChain(chain, all)
		if err != nil {
			return nil, err
		}
		branches = append(branches, branch)
	}
	if len(branches) == 1 {
		return g.finish(branches[0])
	}
	u := &sqlast.Union{Branches: branches}
	return g.finishQuery(u, all)
}

// genChain builds one outer-union branch: the chain's groups joined left
// to right with outer joins, padded to the full column set.
func (g *gen) genChain(chain []*viewtree.Group, all []colID) (*sqlast.Select, error) {
	type part struct {
		alias string
		grp   *viewtree.Group
		cols  map[string]bool
	}
	parts := make([]part, len(chain))

	var from sqlast.TableExpr
	for i, grp := range chain {
		base := g.nodeSelect(grp)
		alias := g.alias("u")
		cols := make(map[string]bool)
		for _, a := range grp.Args {
			cols[g.varName(a)] = true
		}
		// Tag the branch's L value inside the derived table so outer-join
		// null extension nulls it when the chain breaks.
		if i > 0 {
			lname := g.name(colID{isL: true, level: grp.Root.Level()})
			base.Items = append(base.Items, sqlast.SelectItem{
				Expr:  sqlast.IntLit(int64(grp.Root.Ordinal())),
				Alias: lname,
			})
			cols[lname] = true
		}
		parts[i] = part{alias: alias, grp: grp, cols: cols}
		d := &sqlast.Derived{Query: base, Alias: alias}
		if i == 0 {
			from = d
			continue
		}
		// Join on the parent group's edge keys (carried by both sides).
		var on []sqlast.Expr
		prev := parts[i-1]
		for _, ge := range chain[i-1].Children {
			if ge.Child != grp {
				continue
			}
			for _, k := range ge.ParentNode.KeyArgs {
				if prev.cols[g.varName(k)] && cols[g.varName(k)] {
					on = append(on, sqlast.Eq(
						sqlast.Col(prev.alias, g.varName(k)),
						sqlast.Col(alias, g.varName(k))))
				}
			}
		}
		from = &sqlast.Join{Kind: sqlast.JoinLeftOuter, L: from, R: d, On: sqlast.MakeAnd(on)}
	}

	sel := &sqlast.Select{From: []sqlast.TableExpr{from}}
	for _, c := range all {
		// Shared columns (ancestor keys) must come from the shallowest
		// chain part that carries them: deeper parts are null-extended by
		// the outer joins, which would corrupt the structural sort key.
		var e sqlast.Expr = sqlast.NullLit()
		for i := 0; i < len(parts); i++ {
			if parts[i].cols[g.name(c)] {
				e = sqlast.Col(parts[i].alias, g.name(c))
				break
			}
		}
		sel.Items = append(sel.Items, sqlast.SelectItem{Expr: e, Alias: g.name(c)})
	}
	return sel, nil
}

// finish wraps a component select with the structural ORDER BY and stream
// metadata.
func (g *gen) finish(sel *sqlast.Select) (*Stream, error) {
	return g.finishQuery(sel, g.subtreeCols(g.comp.Root))
}

func (g *gen) finishQuery(q sqlast.Query, cols []colID) (*Stream, error) {
	outNames := sqlast.OutputColumns(q)
	byName := make(map[string]colID, len(cols))
	for _, c := range cols {
		byName[g.name(c)] = c
	}
	// The column metadata follows the query's actual output positions,
	// since the tagger addresses row values positionally. Filler columns
	// (e.g. the "_k" constant of variable-free groups) keep positions
	// aligned; the tagger never reads them.
	meta := make([]StreamCol, len(outNames))
	sortKey := make([]int, 0, len(cols))
	for i, n := range outNames {
		c, ok := byName[n]
		if !ok {
			meta[i] = StreamCol{Name: n, Pos: -1}
			continue
		}
		delete(byName, n)
		meta[i] = StreamCol{Name: n, IsL: c.isL, Level: c.level, Ref: c.ref, Pos: g.pos(c)}
		sortKey = append(sortKey, i)
	}
	// byName now holds only the key columns the output lacks.
	for _, c := range cols {
		if _, missing := byName[g.name(c)]; missing {
			return nil, fmt.Errorf("sqlgen: generated query lacks column %s", g.name(c))
		}
	}
	// The sort key lists the output positions in structural key order, the
	// ORDER BY's order. The resume metadata is captured before the ORDER BY
	// mutates the tree: the body text, and where each sort-key column sits
	// in the output row.
	slices.SortFunc(sortKey, func(a, b int) int { return meta[a].Pos - meta[b].Pos })
	order := make([]sqlast.OrderItem, len(sortKey))
	for i, k := range sortKey {
		order[i] = sqlast.OrderItem{Expr: &sqlast.ColumnRef{Column: outNames[k]}}
	}
	bodySQL := sqlast.Print(q)
	switch q := q.(type) {
	case *sqlast.Select:
		q.OrderBy = order
	case *sqlast.Union:
		q.OrderBy = order
	}
	return &Stream{
		Comp: g.comp, Query: q, Cols: meta,
		bodySQL: bodySQL, outNames: outNames, sortKey: sortKey,
	}, nil
}

// condExpr converts an RXL condition into a SQL expression.
func condExpr(c rxl.Condition) sqlast.Expr {
	return &sqlast.Compare{Op: c.Op, L: operandExpr(c.L), R: operandExpr(c.R)}
}

func operandExpr(o rxl.Operand) sqlast.Expr {
	if o.IsConst {
		return &sqlast.Literal{Val: o.Const}
	}
	return sqlast.Col(o.Var, o.Field)
}
