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
	"silkroute/internal/value"
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

	// sortKey holds the output positions of the structural sort key, in
	// ORDER BY order.
	sortKey []int
}

// SQL renders the stream's query as SQL text.
func (s *Stream) SQL() string { return sqlast.Print(s.Query) }

// Generate produces one Stream per component. It makes two passes. The
// first works out every group's column sets and counts the syntax-tree
// nodes the queries need; the second builds the queries, carving every
// node from slabs sized by that count. A call therefore allocates once per
// node kind, not once per node, and the column names are the tree's own
// (viewtree.Tree.Key).
func Generate(t *viewtree.Tree, comps []*viewtree.Component, style Style) ([]*Stream, error) {
	out, _, err := generate(t, comps, style)
	return out, err
}

// generate is Generate, returning its generator too, so tests can check
// the plan pass's counts.
func generate(t *viewtree.Tree, comps []*viewtree.Component, style Style) ([]*Stream, *gen, error) {
	g := &gen{tree: t, style: style, mark: make([]bool, t.Width)}
	g.plan(comps)
	out := make([]*Stream, len(comps))
	streams := make([]Stream, len(comps))
	for i, c := range comps {
		g.comp, g.alias = c, 0
		s := &streams[i]
		if err := g.genComp(s, g.ints(g.sortKeys[i])); err != nil {
			return nil, g, err
		}
		out[i] = s
	}
	return out, g, nil
}

// span is a run of gen.pos.
type span struct{ lo, hi int }

// part is one group of an outer-union chain and the alias of its derived
// table.
type part struct {
	grp   *viewtree.Group
	alias string
}

// sizes counts what the plan pass finds the build pass will carve.
type sizes struct {
	sels, tables, derived, joins, unions, cols, lits, cmps, ands int
	items, from, exprs, branches, order, meta, aliasBytes        int
}

// slabs holds the build pass's nodes, one slice per kind.
type slabs struct {
	sels     []sqlast.Select
	tables   []sqlast.BaseTable
	derived  []sqlast.Derived
	joins    []sqlast.Join
	unions   []sqlast.Union
	cols     []sqlast.ColumnRef
	lits     []sqlast.Literal
	cmps     []sqlast.Compare
	ands     []sqlast.And
	items    []sqlast.SelectItem
	from     []sqlast.TableExpr
	exprs    []sqlast.Expr
	branches []*sqlast.Select
	order    []sqlast.OrderItem
	meta     []StreamCol
}

func newSlabs(n sizes) slabs {
	return slabs{
		sels:     make([]sqlast.Select, n.sels),
		tables:   make([]sqlast.BaseTable, n.tables),
		derived:  make([]sqlast.Derived, n.derived),
		joins:    make([]sqlast.Join, n.joins),
		unions:   make([]sqlast.Union, n.unions),
		cols:     make([]sqlast.ColumnRef, n.cols),
		lits:     make([]sqlast.Literal, n.lits),
		cmps:     make([]sqlast.Compare, n.cmps),
		ands:     make([]sqlast.And, n.ands),
		items:    make([]sqlast.SelectItem, n.items),
		from:     make([]sqlast.TableExpr, n.from),
		exprs:    make([]sqlast.Expr, n.exprs),
		branches: make([]*sqlast.Select, n.branches),
		order:    make([]sqlast.OrderItem, n.order),
		meta:     make([]StreamCol, n.meta),
	}
}

// left counts the elements no node took.
func (sl *slabs) left() int {
	return len(sl.sels) + len(sl.tables) + len(sl.derived) + len(sl.joins) +
		len(sl.unions) + len(sl.cols) + len(sl.lits) + len(sl.cmps) + len(sl.ands) +
		len(sl.items) + len(sl.from) + len(sl.exprs) + len(sl.branches) +
		len(sl.order) + len(sl.meta)
}

type gen struct {
	tree  *viewtree.Tree
	style Style
	comp  *viewtree.Component
	alias int // derived-table alias counter, per component

	// mark is scratch space over key positions, all false between uses.
	mark []bool
	// pos holds every planned subtree's columns, as key positions in
	// ascending order, and every stream's sort key. An outer-join
	// component plans every group's subtree, an outer-union component its
	// root's only.
	pos      []int
	subs     []span // the planned subtrees, in the order the build pass asks for them
	next     int    // the build pass's next subtree
	sortKeys []span // per component
	path     []part // an outer-union chain, root first

	n      sizes
	sl     slabs
	missed int             // takes a slab could not serve (a miscount)
	names  strings.Builder // every alias of the call
}

// take carves n elements off the front of a slab. A slab the plan pass
// under-counted falls back to a fresh slice rather than failing.
func take[T any](g *gen, slab *[]T, n int) []T {
	s := *slab
	if len(s) < n {
		g.missed++
		return make([]T, n)
	}
	*slab = s[n:]
	return s[:n:n]
}

func one[T any](g *gen, slab *[]T) *T { return &take(g, slab, 1)[0] }

func (g *gen) ints(s span) []int { return g.pos[s.lo:s.hi:s.hi] }

// key returns the SQL name of a key position.
func (g *gen) key(p int) string { return g.tree.Key[p].Name }

// varPos returns a variable's key position.
func (g *gen) varPos(r viewtree.VarRef) int {
	vi, _ := g.tree.VarIndex(r)
	return vi.Pos
}

// lPos returns the key position of a level's L column.
func (g *gen) lPos(level int) int { return g.tree.LPos[level-1] }

func carries(grp *viewtree.Group, k viewtree.VarRef) bool { return slices.Contains(grp.Args, k) }

// owns reports whether key position p is one of the group's args.
func (g *gen) owns(grp *viewtree.Group, p int) bool {
	for _, a := range grp.Args {
		if g.varPos(a) == p {
			return true
		}
	}
	return false
}

// countAlias counts the next alias's bytes.
func (g *gen) countAlias() {
	g.alias++
	g.n.aliasBytes += 1 + len(strconv.Itoa(g.alias))
}

// newAlias names the next derived table, prefix plus counter, carved from
// the call's one name buffer.
func (g *gen) newAlias(prefix byte) string {
	g.alias++
	start := g.names.Len()
	g.names.WriteByte(prefix)
	var buf [20]byte
	g.names.Write(strconv.AppendInt(buf[:0], int64(g.alias), 10))
	return g.names.String()[start:]
}

// plan is the first pass: it plans every component's column sets, counts
// their nodes, and then sizes the slabs.
func (g *gen) plan(comps []*viewtree.Component) {
	groups, maxGroups, positions := 0, 0, 0
	for _, c := range comps {
		groups += len(c.Groups)
		maxGroups = max(maxGroups, len(c.Groups))
		positions += g.countCols(c.Root) // the sort key
		if g.style == OuterUnion {
			positions += g.countCols(c.Root)
		} else {
			for _, grp := range c.Groups {
				positions += g.countCols(grp)
			}
		}
	}
	if g.style == OuterUnion {
		g.subs = make([]span, 0, len(comps))
		g.path = make([]part, maxGroups)
	} else {
		g.subs = make([]span, 0, groups)
	}
	g.pos = make([]int, 0, positions)
	g.sortKeys = make([]span, len(comps))
	for i, c := range comps {
		g.comp, g.alias = c, 0
		var root span
		if g.style == OuterUnion {
			root = g.subtreeCols(c.Root)
			g.subs = append(g.subs, root)
			chains := g.planChains(c.Root, 0, g.ints(root))
			if chains > 1 {
				g.n.unions++
				g.n.branches += chains
			}
			g.n.meta += root.hi - root.lo
		} else {
			root = g.planGroup(c.Root)
			g.n.meta += g.outCols(c.Root, g.ints(root))
		}
		k := root.hi - root.lo
		g.n.order += k
		g.n.cols += k
		g.sortKeys[i] = span{len(g.pos), len(g.pos) + k}
		g.pos = append(g.pos, make([]int, k)...)
	}
	g.sl = newSlabs(g.n)
	g.names.Grow(g.n.aliasBytes)
}

// subtreeCols plans the canonical column set of a group subtree: the
// group's args, one dynamic L column per child-edge level, and the child
// subtrees' columns, in key order.
func (g *gen) subtreeCols(grp *viewtree.Group) span {
	g.markSubtree(grp)
	lo := len(g.pos)
	for p, m := range g.mark {
		if m {
			g.pos = append(g.pos, p)
			g.mark[p] = false
		}
	}
	return span{lo, len(g.pos)}
}

// countCols counts the columns subtreeCols plans for grp.
func (g *gen) countCols(grp *viewtree.Group) int {
	g.markSubtree(grp)
	n := 0
	for p, m := range g.mark {
		if m {
			n++
			g.mark[p] = false
		}
	}
	return n
}

func (g *gen) markSubtree(grp *viewtree.Group) {
	for _, a := range grp.Args {
		g.mark[g.varPos(a)] = true
	}
	for _, ge := range grp.Children {
		g.mark[g.lPos(ge.Child.Root.Level())] = true
		g.markSubtree(ge.Child)
	}
}

// joinKeys appends to dst the key positions of the deduplicated key args
// shared between a group and all of its children, in first-seen order: the
// union of the edge parent nodes' key args, every one of which appears in
// each child subtree (Skolem args accumulate down the tree). Only keys
// every child actually carries can join; with auto-Skolem terms that is
// all of them, but explicit Skolem terms may drop some.
func (g *gen) joinKeys(grp *viewtree.Group, dst []int) []int {
	lo := len(dst)
	for _, ge := range grp.Children {
		for _, k := range ge.ParentNode.KeyArgs {
			p := g.varPos(k)
			if slices.Contains(dst[lo:], p) {
				continue
			}
			all := true
			for _, ce := range grp.Children {
				all = all && carries(ce.Child, k)
			}
			if all {
				dst = append(dst, p)
			}
		}
	}
	return dst
}

// inChild reports whether key position p of a group's subtree is a column
// of the union of its child branches: everything in the subtree except the
// group's own args (those come from the base select), but the join keys
// stay, so the ON condition can reference them on the child side.
func (g *gen) inChild(grp *viewtree.Group, keys []int, p int) bool {
	return !g.owns(grp, p) || slices.Contains(keys, p)
}

// planGroup plans a group subtree of an outer-join query in the order
// genGroup builds it, counts its nodes, and returns the group's subtree
// columns.
func (g *gen) planGroup(grp *viewtree.Group) span {
	sub := g.subtreeCols(grp)
	g.subs = append(g.subs, sub)
	g.countNode(grp, 0)
	if len(grp.Children) == 0 {
		return sub
	}
	var buf [16]int
	keys := g.joinKeys(grp, buf[:0])
	child := 0
	for _, c := range g.ints(sub) {
		if g.inChild(grp, keys, c) {
			child++
		}
	}
	for _, ge := range grp.Children {
		csub := g.ints(g.planGroup(ge.Child))
		g.countAlias()
		g.n.sels++
		g.n.derived++
		g.n.from++
		g.n.items += child
		lp := g.lPos(ge.Child.Root.Level())
		for _, c := range g.ints(sub) {
			switch {
			case !g.inChild(grp, keys, c):
			case c != lp && slices.Contains(csub, c):
				g.n.cols++
			default:
				g.n.lits++
			}
		}
	}
	if k := len(grp.Children); k > 1 {
		g.n.unions++
		g.n.branches += k
	}
	g.countAlias()
	g.countAlias()
	g.countJoin(len(keys))
	g.n.derived += 2
	g.n.sels++
	g.n.from++
	out := g.outCols(grp, g.ints(sub))
	g.n.items += out
	g.n.cols += out
	return sub
}

// outCols counts the output columns of a group's outer-join query: its
// args, and the child union's columns that are not.
func (g *gen) outCols(grp *viewtree.Group, sub []int) int {
	if len(grp.Children) == 0 {
		return max(len(grp.Args), 1)
	}
	n := len(grp.Args)
	for _, c := range sub {
		if !g.owns(grp, c) {
			n++
		}
	}
	return n
}

// countJoin counts a join and its ON condition of keys equalities.
func (g *gen) countJoin(keys int) {
	g.n.joins++
	g.n.cmps += keys
	g.n.cols += 2 * keys
	g.n.exprs += keys
	if keys > 1 {
		g.n.ands++
	}
}

// countNode counts the nodes of nodeSelect(grp, extra).
func (g *gen) countNode(grp *viewtree.Group, extra int) {
	atoms, conds, args := len(grp.Rule.Atoms), len(grp.Rule.Conds), len(grp.Args)
	g.n.sels++
	g.n.tables += atoms
	g.n.from += atoms
	g.n.cmps += conds
	g.n.exprs += conds
	if conds > 1 {
		g.n.ands++
	}
	for _, c := range grp.Rule.Conds {
		for _, o := range [2]rxl.Operand{c.L, c.R} {
			if o.IsConst {
				g.n.lits++
			} else {
				g.n.cols++
			}
		}
	}
	g.n.items += max(args, 1) + extra
	g.n.cols += args
	g.n.lits += extra
	if args == 0 {
		g.n.lits++
	}
}

// planChains counts the outer-union branches of the chains through grp,
// whose ancestors fill g.path[:depth], and returns how many there are.
func (g *gen) planChains(grp *viewtree.Group, depth int, all []int) int {
	g.path[depth] = part{grp: grp}
	if len(grp.Children) > 0 {
		n := 0
		for _, ge := range grp.Children {
			n += g.planChains(ge.Child, depth+1, all)
		}
		return n
	}
	chain := g.path[:depth+1]
	for i, pt := range chain {
		extra := min(i, 1)
		g.countNode(pt.grp, extra)
		g.n.derived++
		g.countAlias()
		if i == 0 {
			continue
		}
		g.countJoin(g.chainKeys(chain[i-1].grp, pt.grp, nil))
	}
	g.n.sels++
	g.n.from++
	g.n.items += len(all)
	for _, c := range all {
		if g.carrier(chain, c) >= 0 {
			g.n.cols++
		} else {
			g.n.lits++
		}
	}
	return 1
}

// carrier returns the index of the shallowest part of an outer-union chain
// that carries key position p, -1 if none does.
func (g *gen) carrier(chain []part, p int) int {
	for i, pt := range chain {
		if g.owns(pt.grp, p) || i > 0 && p == g.lPos(pt.grp.Root.Level()) {
			return i
		}
	}
	return -1
}

// chainKeys visits the join keys between two consecutive groups of an
// outer-union chain, the parent group's edge keys both sides carry, and
// returns how many there are.
func (g *gen) chainKeys(prev, grp *viewtree.Group, visit func(viewtree.VarRef)) int {
	n := 0
	for _, ge := range prev.Children {
		if ge.Child != grp {
			continue
		}
		for _, k := range ge.ParentNode.KeyArgs {
			if carries(prev, k) && carries(grp, k) {
				n++
				if visit != nil {
					visit(k)
				}
			}
		}
	}
	return n
}

// genComp is the build pass for one component.
func (g *gen) genComp(s *Stream, sortKey []int) error {
	if g.style == OuterUnion {
		return g.genOuterUnion(s, sortKey)
	}
	sel, sub := g.genGroup(g.comp.Root)
	return g.finish(s, sel, sel.Items, g.ints(sub), sortKey)
}

func (g *gen) col(table, column string) *sqlast.ColumnRef {
	c := one(g, &g.sl.cols)
	c.Table, c.Column = table, column
	return c
}

func (g *gen) lit(v value.Value) *sqlast.Literal {
	l := one(g, &g.sl.lits)
	l.Val = v
	return l
}

func (g *gen) eq(l, r sqlast.Expr) *sqlast.Compare {
	c := one(g, &g.sl.cmps)
	c.Op, c.L, c.R = sqlast.OpEq, l, r
	return c
}

// and is sqlast.MakeAnd over the slabs.
func (g *gen) and(terms []sqlast.Expr) sqlast.Expr {
	switch len(terms) {
	case 0:
		return nil
	case 1:
		return terms[0]
	}
	a := one(g, &g.sl.ands)
	a.Terms = terms
	return a
}

func (g *gen) derived(q sqlast.Query, alias string) *sqlast.Derived {
	d := one(g, &g.sl.derived)
	d.Query, d.Alias = q, alias
	return d
}

// from1 builds a select reading one table expression.
func (g *gen) from1(te sqlast.TableExpr) *sqlast.Select {
	s := one(g, &g.sl.sels)
	s.From = take(g, &g.sl.from, 1)
	s.From[0] = te
	return s
}

// condExpr converts an RXL condition into a SQL expression.
func (g *gen) condExpr(c rxl.Condition) sqlast.Expr {
	cmp := one(g, &g.sl.cmps)
	cmp.Op, cmp.L, cmp.R = c.Op, g.operand(c.L), g.operand(c.R)
	return cmp
}

func (g *gen) operand(o rxl.Operand) sqlast.Expr {
	if o.IsConst {
		return g.lit(o.Const)
	}
	return g.col(o.Var, o.Field)
}

// nodeSelect builds the plain select computing one group's node query:
// its combined rule body with the group args projected out, with room for
// extra more items.
func (g *gen) nodeSelect(grp *viewtree.Group, extra int) *sqlast.Select {
	s := one(g, &g.sl.sels)
	atoms := grp.Rule.Atoms
	s.From = take(g, &g.sl.from, len(atoms))
	tables := take(g, &g.sl.tables, len(atoms))
	for i, a := range atoms {
		tables[i] = sqlast.BaseTable{Name: a.Rel, Alias: a.Var}
		s.From[i] = &tables[i]
	}
	conj := take(g, &g.sl.exprs, len(grp.Rule.Conds))
	for i, c := range grp.Rule.Conds {
		conj[i] = g.condExpr(c)
	}
	s.Where = g.and(conj)
	s.Items = take(g, &g.sl.items, max(len(grp.Args), 1)+extra)[:0]
	for _, a := range grp.Args {
		s.Items = append(s.Items, sqlast.SelectItem{Expr: g.col(a.Var, a.Field), Alias: g.key(g.varPos(a))})
	}
	if len(grp.Args) == 0 {
		// A constant element with no variables still needs one column so
		// the select is well-formed; the tagger ignores it.
		s.Items = append(s.Items, sqlast.SelectItem{Expr: g.lit(value.Int(1)), Alias: "_k"})
	}
	return s
}

// genGroup recursively builds the outer-join query of a group subtree. The
// result's output columns are exactly the subtree's columns, which it
// returns too.
func (g *gen) genGroup(grp *viewtree.Group) (*sqlast.Select, span) {
	subSpan := g.subs[g.next]
	g.next++
	sub := g.ints(subSpan)
	if len(grp.Children) == 0 {
		return g.nodeSelect(grp, 0), subSpan
	}
	var buf [16]int
	keys := g.joinKeys(grp, buf[:0])
	child := 0
	for _, c := range sub {
		if g.inChild(grp, keys, c) {
			child++
		}
	}

	// Build the union of child branches, each padded to the child columns.
	var childQuery sqlast.Query
	var branches []*sqlast.Select
	if len(grp.Children) > 1 {
		branches = take(g, &g.sl.branches, len(grp.Children))
	}
	for bi, ge := range grp.Children {
		csel, csub := g.genGroup(ge.Child)
		subCols := g.ints(csub)
		subAlias := g.newAlias('c')
		branch := g.from1(g.derived(csel, subAlias))
		lp := g.lPos(ge.Child.Root.Level())
		ordinal := int64(ge.Child.Root.Ordinal())
		branch.Items = take(g, &g.sl.items, child)[:0]
		for _, c := range sub {
			if !g.inChild(grp, keys, c) {
				continue
			}
			var e sqlast.Expr
			switch {
			case c == lp:
				e = g.lit(value.Int(ordinal))
			case slices.Contains(subCols, c):
				e = g.col(subAlias, g.key(c))
			default:
				e = g.lit(value.Null)
			}
			branch.Items = append(branch.Items, sqlast.SelectItem{Expr: e, Alias: g.key(c)})
		}
		if branches == nil {
			childQuery = branch
		} else {
			branches[bi] = branch
		}
	}
	if branches != nil {
		u := one(g, &g.sl.unions)
		u.Branches = branches
		childQuery = u
	}

	// Join base with the children. The join keys are the parent-side
	// node's key args, which every child branch carries by construction.
	// The outer join degenerates to an inner join when every child is
	// guaranteed to exist (paper footnote in §3.5).
	baseAlias := g.newAlias('b')
	qAlias := g.newAlias('q')
	joinKind := sqlast.JoinInner
	for _, ge := range grp.Children {
		if !ge.Label.AtLeastOne() {
			joinKind = sqlast.JoinLeftOuter
		}
	}
	on := take(g, &g.sl.exprs, len(keys))
	for i, k := range keys {
		on[i] = g.eq(g.col(baseAlias, g.key(k)), g.col(qAlias, g.key(k)))
	}
	join := one(g, &g.sl.joins)
	*join = sqlast.Join{
		Kind: joinKind,
		L:    g.derived(g.nodeSelect(grp, 0), baseAlias),
		R:    g.derived(childQuery, qAlias),
		On:   g.and(on),
	}

	out := g.from1(join)
	out.Items = take(g, &g.sl.items, g.outCols(grp, sub))[:0]
	for _, a := range grp.Args {
		n := g.key(g.varPos(a))
		out.Items = append(out.Items, sqlast.SelectItem{Expr: g.col(baseAlias, n), Alias: n})
	}
	for _, c := range sub {
		if g.owns(grp, c) {
			continue // own args, join keys among them, come from the base side
		}
		out.Items = append(out.Items, sqlast.SelectItem{Expr: g.col(qAlias, g.key(c)), Alias: g.key(c)})
	}
	return out, subSpan
}

// genOuterUnion generates the component in the [9] style: one branch per
// root-to-leaf group chain, each a chain of left outer joins.
func (g *gen) genOuterUnion(s *Stream, sortKey []int) error {
	all := g.ints(g.subs[g.next])
	g.next++
	var branches []*sqlast.Select
	if n := leaves(g.comp.Root); n > 1 {
		branches = take(g, &g.sl.branches, n)[:0]
	}
	var only *sqlast.Select
	g.genChains(g.comp.Root, 0, all, func(b *sqlast.Select) {
		if branches == nil {
			only = b
		} else {
			branches = append(branches, b)
		}
	})
	if branches == nil {
		return g.finish(s, only, only.Items, all, sortKey)
	}
	u := one(g, &g.sl.unions)
	u.Branches = branches
	return g.finish(s, u, branches[0].Items, all, sortKey)
}

func leaves(grp *viewtree.Group) int {
	if len(grp.Children) == 0 {
		return 1
	}
	n := 0
	for _, ge := range grp.Children {
		n += leaves(ge.Child)
	}
	return n
}

// genChains builds the branch of every chain through grp, whose ancestors
// fill g.path[:depth], in depth-first order.
func (g *gen) genChains(grp *viewtree.Group, depth int, all []int, emit func(*sqlast.Select)) {
	g.path[depth] = part{grp: grp}
	if len(grp.Children) == 0 {
		emit(g.genChain(g.path[:depth+1], all))
		return
	}
	for _, ge := range grp.Children {
		g.genChains(ge.Child, depth+1, all, emit)
	}
}

// genChain builds one outer-union branch: the chain's groups joined left
// to right with outer joins, padded to the full column set.
func (g *gen) genChain(chain []part, all []int) *sqlast.Select {
	var from sqlast.TableExpr
	for i := range chain {
		grp := chain[i].grp
		base := g.nodeSelect(grp, min(i, 1))
		alias := g.newAlias('u')
		chain[i].alias = alias
		// Tag the branch's L value inside the derived table so outer-join
		// null extension nulls it when the chain breaks.
		if i > 0 {
			base.Items = append(base.Items, sqlast.SelectItem{
				Expr:  g.lit(value.Int(int64(grp.Root.Ordinal()))),
				Alias: g.key(g.lPos(grp.Root.Level())),
			})
		}
		d := g.derived(base, alias)
		if i == 0 {
			from = d
			continue
		}
		// Join on the parent group's edge keys (carried by both sides).
		prev := chain[i-1]
		on := take(g, &g.sl.exprs, g.chainKeys(prev.grp, grp, nil))[:0]
		g.chainKeys(prev.grp, grp, func(k viewtree.VarRef) {
			n := g.key(g.varPos(k))
			on = append(on, g.eq(g.col(prev.alias, n), g.col(alias, n)))
		})
		join := one(g, &g.sl.joins)
		*join = sqlast.Join{Kind: sqlast.JoinLeftOuter, L: from, R: d, On: g.and(on)}
		from = join
	}

	sel := g.from1(from)
	sel.Items = take(g, &g.sl.items, len(all))
	for i, c := range all {
		// Shared columns (ancestor keys) must come from the shallowest
		// chain part that carries them: deeper parts are null-extended by
		// the outer joins, which would corrupt the structural sort key.
		var e sqlast.Expr
		if pi := g.carrier(chain, c); pi >= 0 {
			e = g.col(chain[pi].alias, g.key(c))
		} else {
			e = g.lit(value.Null)
		}
		sel.Items[i] = sqlast.SelectItem{Expr: e, Alias: g.key(c)}
	}
	return sel
}

// finish attaches the structural ORDER BY to a component query whose
// output items are items, and fills in the stream: the column metadata,
// and where each of the key columns cols sits in the output row.
func (g *gen) finish(s *Stream, q sqlast.Query, items []sqlast.SelectItem, cols, sortKey []int) error {
	// The column metadata follows the query's actual output positions,
	// since the tagger addresses row values positionally. Filler columns
	// (e.g. the "_k" constant of variable-free groups) keep positions
	// aligned; the tagger never reads them.
	meta := take(g, &g.sl.meta, len(items))
	for i, it := range items {
		name := it.Alias
		if cr, ok := it.Expr.(*sqlast.ColumnRef); ok && name == "" {
			name = cr.Column
		}
		meta[i] = StreamCol{Name: name, Pos: -1}
	}
	// The sort key lists the output positions in structural key order, the
	// ORDER BY's order: cols ascends, and each takes the first output
	// column of its name.
	for j, c := range cols {
		k := g.tree.Key[c]
		i := slices.IndexFunc(meta, func(m StreamCol) bool { return m.Pos < 0 && m.Name == k.Name })
		if i < 0 {
			return fmt.Errorf("sqlgen: generated query lacks column %s", k.Name)
		}
		meta[i] = StreamCol{Name: k.Name, IsL: k.IsL, Level: k.Level, Ref: k.Ref, Pos: c}
		sortKey[j] = i
	}
	order := take(g, &g.sl.order, len(sortKey))
	for j, i := range sortKey {
		order[j] = sqlast.OrderItem{Expr: g.col("", meta[i].Name)}
	}
	switch q := q.(type) {
	case *sqlast.Select:
		q.OrderBy = order
	case *sqlast.Union:
		q.OrderBy = order
	}
	*s = Stream{Comp: g.comp, Query: q, Cols: meta, sortKey: sortKey}
	return nil
}
