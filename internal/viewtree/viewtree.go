// Package viewtree implements the paper's intermediate representation for
// RXL queries (§3.1): a global XML template whose nodes carry non-recursive
// datalog rules, Skolem-function indices, Skolem-term variable indices, and
// multiplicity-labeled edges. Every plan the middleware can run — from the
// fully partitioned plan to the unified outer-join plan — is a subset of
// this tree's edges (§3.2), and view-tree reduction (§3.5) collapses nodes
// connected by '1'-labeled edges.
package viewtree

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"silkroute/internal/datalog"
	"silkroute/internal/rxl"
	"silkroute/internal/schema"
	"silkroute/internal/value"
)

// Multiplicity is a view-tree edge label: how many child element instances
// each parent instance can have (§3.5).
type Multiplicity uint8

// Edge labels. One = exactly one ('1'), ZeroOrOne = '?', OneOrMore = '+',
// ZeroOrMore = '*'.
const (
	One Multiplicity = iota
	ZeroOrOne
	OneOrMore
	ZeroOrMore
)

// String returns the paper's label glyph.
func (m Multiplicity) String() string {
	switch m {
	case One:
		return "1"
	case ZeroOrOne:
		return "?"
	case OneOrMore:
		return "+"
	case ZeroOrMore:
		return "*"
	}
	return "?"
}

// AtMostOne reports whether the label admits at most one child (C1 holds).
func (m Multiplicity) AtMostOne() bool { return m == One || m == ZeroOrOne }

// AtLeastOne reports whether the label guarantees a child (C2 holds), in
// which case an inner join suffices; otherwise a left outer join is needed.
func (m Multiplicity) AtLeastOne() bool { return m == One || m == OneOrMore }

// VarRef names one Skolem-term variable: a column of a (renamed-unique)
// tuple variable.
type VarRef struct {
	Var   string
	Field string
}

// Q returns the qualified "var.field" form used in rules and SQL aliases.
func (v VarRef) Q() string { return v.Var + "." + v.Field }

// Column returns the SQL column name generated queries give the variable:
// s.suppkey → v_s_suppkey. Tuple-variable aliases are globally unique, so
// names never collide.
func (v VarRef) Column() string {
	return "v_" + strings.ToLower(v.Var) + "_" + strings.ToLower(v.Field)
}

// ContentItem is one text child of an element: a variable or a constant.
type ContentItem struct {
	IsConst bool
	Const   value.Value
	Ref     VarRef
	Pos     int // the variable's position in the structural key
}

// Node is one view-tree node: an element of the global XML template.
type Node struct {
	Tag        string
	SkolemName string
	// SFI is the Skolem-function index: the node's positional path, e.g.
	// S1.4.2 has SFI [1,4,2]. Level = len(SFI).
	SFI []int
	// Index is the node's position in Tree.Nodes.
	Index int

	Parent   *Node
	Children []*Node
	// Label is the multiplicity of the edge from Parent (meaningless on
	// roots).
	Label Multiplicity

	// Atoms and Conds are the node's full accumulated scope: every from
	// binding and where condition whose scope includes this element.
	Atoms []datalog.Atom
	Conds []rxl.Condition

	// KeyArgs are the keys of all in-scope tuple variables (in scope
	// order); ContentArgs are the variables contained in the element.
	// Together they form the Skolem term's arguments.
	KeyArgs     []VarRef
	ContentArgs []VarRef
	// ArgPos holds the structural key position of each of Args().
	ArgPos []int
	// Contents lists the element's text children in document order.
	Contents []ContentItem

	// Rule is the node's datalog rule (head = Skolem term, body = scope).
	Rule *datalog.Rule
	// groupHead heads the combined rule of a group rooted at the node.
	groupHead string
}

// Level returns the node's depth (root = 1).
func (n *Node) Level() int { return len(n.SFI) }

// Ordinal returns the node's 1-based position among its siblings — the
// value of the L column at the node's level.
func (n *Node) Ordinal() int { return n.SFI[len(n.SFI)-1] }

// Args returns the node's Skolem-term arguments: key args then content
// args, without duplicates.
func (n *Node) Args() []VarRef {
	out := make([]VarRef, 0, len(n.KeyArgs)+len(n.ContentArgs))
	for _, args := range [2][]VarRef{n.KeyArgs, n.ContentArgs} {
		for _, a := range args {
			if !slices.Contains(out, a) {
				out = append(out, a)
			}
		}
	}
	return out
}

// SFIString renders the Skolem-function index as "S1.4.2".
func SFIString(sfi []int) string {
	parts := make([]string, len(sfi))
	for i, d := range sfi {
		parts[i] = strconv.Itoa(d)
	}
	return "S" + strings.Join(parts, ".")
}

// Edge is one parent→child edge, indexed in breadth-first order.
type Edge struct {
	Index  int
	Parent *Node
	Child  *Node
}

// Label returns the edge's multiplicity label.
func (e Edge) Label() Multiplicity { return e.Child.Label }

// VarInfo records a Skolem-term variable's index (§3.1): p is the level of
// the shallowest node carrying it, q its position within that level, and
// Pos its position in the global structural key L1,V(1,*),L2,V(2,*),…
type VarInfo struct {
	Ref   VarRef
	Level int // p
	Ord   int // q
	Pos   int
}

// Tree is the complete view tree of one RXL query.
type Tree struct {
	Schema *schema.Schema
	Roots  []*Node
	// Nodes in breadth-first order (the order Skolem-function indices are
	// assigned in).
	Nodes []*Node
	// Edges in breadth-first order; a plan is a subset of these.
	Edges []Edge
	// Vars is the global Skolem-term variable order.
	Vars []VarInfo
	// The structural key L1,V(1,*),L2,V(2,*),… that every stream sorts by
	// and the tagger merges on has Width positions; level p's L column
	// sits at LPos[p-1] and each variable at its VarInfo.Pos.
	LPos  []int
	Width int
	// Key describes each of the Width positions, with the SQL column name
	// every generated query gives it.
	Key []KeyCol
	// varPos maps each variable to its index in Vars.
	varPos map[VarRef]int
	// varQ holds each variable's qualified name, by index in Vars.
	varQ []string
}

// KeyCol is one position of the structural key: a level's L column or a
// Skolem-term variable.
type KeyCol struct {
	Name  string // SQL column name: "L2", or VarRef.Column
	IsL   bool
	Level int    // set when IsL
	Ref   VarRef // set when !IsL
}

// MaxDepth returns the deepest node level.
func (t *Tree) MaxDepth() int { return len(t.LPos) }

// VarIndex returns the VarInfo for a variable reference.
func (t *Tree) VarIndex(ref VarRef) (VarInfo, bool) {
	i, ok := t.varPos[ref]
	if !ok {
		return VarInfo{}, false
	}
	return t.Vars[i], true
}

// Relations returns the sorted, lower-cased names of every relation the
// tree's rules bind: the base tables any plan of the tree reads, since
// every stream's SQL is generated from these rules. Caches use it as the
// view's dependency set.
func (t *Tree) Relations() []string {
	seen := make(map[string]bool)
	var out []string
	for _, n := range t.Nodes {
		for _, a := range n.Rule.Atoms {
			if rel := strings.ToLower(a.Rel); !seen[rel] {
				seen[rel] = true
				out = append(out, rel)
			}
		}
	}
	sort.Strings(out)
	return out
}

// builder carries construction state.
type builder struct {
	schema   *schema.Schema
	aliasUse map[string]int // base var name → times used, for renaming
}

// binding is one in-scope tuple variable.
type binding struct {
	name  string // name as written in the query
	alias string // globally unique alias
	rel   *schema.Relation
}

// scope is the accumulated from/where environment of a template position.
type scope struct {
	bindings []binding
	conds    []rxl.Condition // with variables rewritten to unique aliases
}

func (s scope) lookup(name string) (binding, bool) {
	// Innermost binding wins.
	for i := len(s.bindings) - 1; i >= 0; i-- {
		if s.bindings[i].name == name {
			return s.bindings[i], true
		}
	}
	return binding{}, false
}

// Build constructs the view tree of an RXL query against a schema: it
// merges all construct templates into the global template, introduces
// Skolem terms where missing, assigns Skolem-function and Skolem-term
// variable indices, attaches datalog rules, and labels every edge.
func Build(q *rxl.Query, s *schema.Schema) (*Tree, error) {
	b := &builder{schema: s, aliasUse: make(map[string]int)}
	t := &Tree{Schema: s, varPos: make(map[VarRef]int)}
	for i, blk := range q.Blocks {
		root, err := b.buildBlock(blk, scope{}, nil)
		if err != nil {
			return nil, err
		}
		root.SFI = []int{i + 1}
		t.Roots = append(t.Roots, root)
	}
	t.assignIndices()
	if err := t.attachRules(); err != nil {
		return nil, err
	}
	t.labelEdges()
	t.indexVars()
	return t, nil
}

// buildBlock extends the scope with the block's bindings and conditions,
// then builds the block's construct element.
func (b *builder) buildBlock(blk *rxl.Block, sc scope, parent *Node) (*Node, error) {
	if blk.Construct == nil {
		return nil, fmt.Errorf("viewtree: block without construct clause")
	}
	newScope := scope{
		bindings: append([]binding{}, sc.bindings...),
		conds:    append([]rxl.Condition{}, sc.conds...),
	}
	for _, f := range blk.From {
		rel, ok := b.schema.Relation(f.Table)
		if !ok {
			return nil, fmt.Errorf("viewtree: unknown relation %q", f.Table)
		}
		alias := f.Var
		if n := b.aliasUse[f.Var]; n > 0 {
			alias = fmt.Sprintf("%s_%d", f.Var, n+1)
		}
		b.aliasUse[f.Var]++
		newScope.bindings = append(newScope.bindings, binding{name: f.Var, alias: alias, rel: rel})
	}
	for _, c := range blk.Where {
		rc, err := b.rewriteCond(c, newScope)
		if err != nil {
			return nil, err
		}
		newScope.conds = append(newScope.conds, rc)
	}
	return b.buildElement(blk.Construct, newScope, parent)
}

// rewriteCond rewrites a condition's variable names to unique aliases and
// validates field references against the schema.
func (b *builder) rewriteCond(c rxl.Condition, sc scope) (rxl.Condition, error) {
	l, err := b.rewriteOperand(c.L, sc)
	if err != nil {
		return rxl.Condition{}, err
	}
	r, err := b.rewriteOperand(c.R, sc)
	if err != nil {
		return rxl.Condition{}, err
	}
	return rxl.Condition{Op: c.Op, L: l, R: r}, nil
}

func (b *builder) rewriteOperand(o rxl.Operand, sc scope) (rxl.Operand, error) {
	if o.IsConst {
		return o, nil
	}
	bd, ok := sc.lookup(o.Var)
	if !ok {
		return rxl.Operand{}, fmt.Errorf("viewtree: unbound tuple variable $%s", o.Var)
	}
	if !bd.rel.HasColumn(o.Field) {
		return rxl.Operand{}, fmt.Errorf("viewtree: relation %s (tuple variable $%s) has no column %q",
			bd.rel.Name, o.Var, o.Field)
	}
	return rxl.FieldRef(bd.alias, o.Field), nil
}

// buildElement creates the node for one template element and recurses into
// its content.
func (b *builder) buildElement(el *rxl.Element, sc scope, parent *Node) (*Node, error) {
	n := &Node{Tag: el.Tag, Parent: parent}
	n.Atoms = make([]datalog.Atom, 0, len(sc.bindings))
	for _, bd := range sc.bindings {
		n.Atoms = append(n.Atoms, datalog.Atom{Rel: bd.rel.Name, Var: bd.alias})
	}
	n.Conds = append([]rxl.Condition{}, sc.conds...)

	// Key args: keys of every in-scope tuple variable, in scope order.
	for _, bd := range sc.bindings {
		for _, k := range bd.rel.Key {
			n.KeyArgs = append(n.KeyArgs, VarRef{Var: bd.alias, Field: k})
		}
	}

	// Explicit Skolem term overrides name and key args.
	if el.Skolem != nil {
		n.SkolemName = el.Skolem.Name
		n.KeyArgs = nil
		for _, a := range el.Skolem.Args {
			ro, err := b.rewriteOperand(a, sc)
			if err != nil {
				return nil, err
			}
			if ro.IsConst {
				return nil, fmt.Errorf("viewtree: constant Skolem argument on <%s>", el.Tag)
			}
			n.KeyArgs = append(n.KeyArgs, VarRef{Var: ro.Var, Field: ro.Field})
		}
	}

	for _, c := range el.Content {
		switch c := c.(type) {
		case *rxl.Text:
			ro, err := b.rewriteOperand(c.Expr, sc)
			if err != nil {
				return nil, err
			}
			if ro.IsConst {
				n.Contents = append(n.Contents, ContentItem{IsConst: true, Const: ro.Const})
			} else {
				ref := VarRef{Var: ro.Var, Field: ro.Field}
				n.Contents = append(n.Contents, ContentItem{Ref: ref})
				n.ContentArgs = append(n.ContentArgs, ref)
			}
		case *rxl.Element:
			child, err := b.buildElement(c, sc, n)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
		case *rxl.Nested:
			child, err := b.buildBlock(c.Block, sc, n)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
		default:
			return nil, fmt.Errorf("viewtree: unknown content %T", c)
		}
	}
	return n, nil
}

// assignIndices assigns Skolem-function indices breadth-first and collects
// Nodes and Edges.
func (t *Tree) assignIndices() {
	queue := append([]*Node{}, t.Roots...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		n.Index = len(t.Nodes)
		t.Nodes = append(t.Nodes, n)
		for i, c := range n.Children {
			c.SFI = append(append([]int{}, n.SFI...), i+1)
			t.Edges = append(t.Edges, Edge{Index: len(t.Edges), Parent: n, Child: c})
			queue = append(queue, c)
		}
	}
	for _, n := range t.Nodes {
		if n.SkolemName == "" {
			n.SkolemName = SFIString(n.SFI)
		}
	}
}

// attachRules builds each node's datalog rule.
func (t *Tree) attachRules() error {
	seen := make(map[string]*Node)
	for _, n := range t.Nodes {
		if prev, dup := seen[n.SkolemName]; dup {
			return fmt.Errorf("viewtree: Skolem function %s used by both <%s> and <%s>",
				n.SkolemName, prev.Tag, n.Tag)
		}
		seen[n.SkolemName] = n
		args := n.Args()
		qargs := make([]string, len(args))
		for i, a := range args {
			qargs[i] = a.Q()
		}
		n.Rule = &datalog.Rule{Head: n.SkolemName, Args: qargs, Atoms: n.Atoms, Conds: n.Conds}
		n.groupHead = n.SkolemName + "'"
	}
	return nil
}

// labelEdges computes every edge's multiplicity from C1 (functional
// dependency) and C2 (inclusion dependency), per §3.5's truth table. The
// FD sets' column names are qualified once per tree, not once per edge.
func (t *Tree) labelEdges() {
	fds := datalog.NewFDs(t.Schema)
	for _, e := range t.Edges {
		c1 := fds.Determines(e.Parent.Rule, e.Child.Rule)
		c2 := datalog.GuaranteesChild(t.Schema, e.Parent.Rule, e.Child.Rule)
		switch {
		case c1 && c2:
			e.Child.Label = One
		case c1:
			e.Child.Label = ZeroOrOne
		case c2:
			e.Child.Label = OneOrMore
		default:
			e.Child.Label = ZeroOrMore
		}
	}
}

// indexVars assigns Skolem-term variable indices, p = level of the
// shallowest node carrying the variable (nodes are visited breadth-first,
// so first sight gives the minimum level) and q = arrival order within the
// level, and lays out the structural key: each level's L column, then that
// level's variables in q order.
func (t *Tree) indexVars() {
	ordAtLevel := make(map[int]int)
	depth := 0
	for _, n := range t.Nodes {
		depth = max(depth, n.Level())
		for _, a := range n.Args() {
			if _, done := t.varPos[a]; done {
				continue
			}
			p := n.Level()
			ordAtLevel[p]++
			t.varPos[a] = len(t.Vars)
			t.Vars = append(t.Vars, VarInfo{Ref: a, Level: p, Ord: ordAtLevel[p]})
		}
	}
	// Global order: by (level, ord).
	sort.SliceStable(t.Vars, func(i, j int) bool {
		if t.Vars[i].Level != t.Vars[j].Level {
			return t.Vars[i].Level < t.Vars[j].Level
		}
		return t.Vars[i].Ord < t.Vars[j].Ord
	})
	addL := func(level int) {
		for len(t.LPos) < level {
			t.LPos = append(t.LPos, t.Width)
			t.Width++
		}
	}
	t.varQ = make([]string, len(t.Vars))
	for i := range t.Vars {
		v := &t.Vars[i]
		addL(v.Level)
		v.Pos = t.Width
		t.Width++
		t.varPos[v.Ref] = i
		t.varQ[i] = v.Ref.Q()
	}
	addL(depth)
	t.Key = make([]KeyCol, t.Width)
	for i, p := range t.LPos {
		t.Key[p] = KeyCol{Name: "L" + strconv.Itoa(i+1), IsL: true, Level: i + 1}
	}
	for _, v := range t.Vars {
		t.Key[v.Pos] = KeyCol{Name: v.Ref.Column(), Ref: v.Ref}
	}
	pos := func(a VarRef) int { return t.Vars[t.varPos[a]].Pos }
	for _, n := range t.Nodes {
		for _, a := range n.Args() {
			n.ArgPos = append(n.ArgPos, pos(a))
		}
		for i, c := range n.Contents {
			if !c.IsConst {
				n.Contents[i].Pos = pos(c.Ref)
			}
		}
	}
}
