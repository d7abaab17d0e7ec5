package viewtree

import (
	"fmt"
	"slices"

	"silkroute/internal/datalog"
	"silkroute/internal/rxl"
)

// A plan is a subset of the view tree's edges: kept edges join their
// endpoints into the same SQL query; cut edges split the tree into
// separate queries (§3.2). With |E| edges there are 2^|E| plans; the
// number of tuple streams a plan produces equals the number of connected
// components, i.e. #nodes − #kept edges.

// Group is a set of view-tree nodes evaluated by a single node query.
// Without reduction every group is a singleton; with reduction, nodes
// connected by kept '1'-labeled edges collapse into one group (§3.5).
type Group struct {
	// Root is the shallowest member; its SFI positions the group.
	Root *Node
	// Members in breadth-first order (Root first).
	Members []*Node
	// Children are the kept edges leaving this group, in child-SFI order.
	Children []*GroupEdge

	// Rule is the combined datalog rule: the union of the members' bodies
	// and arguments.
	Rule *datalog.Rule
	// Args is the union of member args in global variable order.
	Args []VarRef
}

// GroupEdge is a kept edge between two groups in the same component.
type GroupEdge struct {
	Child *Group
	// ParentNode is the view-tree node on the parent side of the edge (a
	// member of the parent group, not necessarily its root).
	ParentNode *Node
	// Label is the original view-tree edge's multiplicity.
	Label Multiplicity
}

// Component is one connected component of a partitioned view tree: one SQL
// query / tuple stream.
type Component struct {
	Root *Group
	// Groups in breadth-first order.
	Groups []*Group
}

// Partition splits the tree under a kept-edge subset and, when reduce is
// true, collapses '1'-labeled kept edges within each component. Components
// are returned in breadth-first order of their root nodes.
func (t *Tree) Partition(keep []bool, reduce bool) ([]*Component, error) {
	lab, err := t.label(keep, reduce)
	if err != nil {
		return nil, err
	}
	return t.build(keep, lab, -1), nil
}

// Component returns the one component of the partition under keep that
// contains seed: the same groups, members, rules, args and group edges, in
// the same order, as the matching element of Partition(keep, reduce). Only
// that component's groups and rules are built.
func (t *Tree) Component(keep []bool, seed *Node, reduce bool) (*Component, error) {
	if seed.Index >= len(t.Nodes) || t.Nodes[seed.Index] != seed {
		return nil, fmt.Errorf("viewtree: node %s is not in the tree", seed.SkolemName)
	}
	lab, err := t.label(keep, reduce)
	if err != nil {
		return nil, err
	}
	return t.build(keep, lab, lab.comp[seed.Index])[0], nil
}

// ComponentRoots returns, for every node index, the index of the root node
// of that node's component under keep. Two nodes share a component exactly
// when they share a root.
func (t *Tree) ComponentRoots(keep []bool) ([]int, error) {
	lab, err := t.label(keep, false)
	return lab.comp, err
}

// labelling assigns each node, by index, the index of its component's root
// and of its group's root.
type labelling struct {
	comp, group []int
}

// label computes the labelling under keep. A component is a union of nodes
// along kept edges, a group a union along kept '1'-labeled edges when
// reduce is true, and each set is named by its shallowest node. Edges are
// in breadth-first order, so a parent's labels are final before its child
// edges are read and one pass carries them down.
func (t *Tree) label(keep []bool, reduce bool) (labelling, error) {
	if len(keep) != len(t.Edges) {
		return labelling{}, fmt.Errorf("viewtree: plan has %d edge flags, tree has %d edges", len(keep), len(t.Edges))
	}
	n := len(t.Nodes)
	buf := make([]int, 2*n)
	lab := labelling{comp: buf[:n:n], group: buf[n:]}
	for i := range t.Nodes {
		lab.comp[i], lab.group[i] = i, i
	}
	for ei, e := range t.Edges {
		if !keep[ei] {
			continue
		}
		p, c := e.Parent.Index, e.Child.Index
		lab.comp[c] = lab.comp[p]
		if reduce && e.Child.Label == One {
			lab.group[c] = lab.group[p]
		}
	}
	return lab, nil
}

// build materializes the components of a labelling, or only the one rooted
// at node index only when only >= 0. Nodes are visited in breadth-first
// order, so a component's or group's first node is its root, and groups
// appear in breadth-first order of their roots.
func (t *Tree) build(keep []bool, lab labelling, only int) []*Component {
	groups := make([]*Group, len(t.Nodes)) // by root node index
	comps := make([]*Component, len(t.Nodes))
	var out []*Component
	for i, n := range t.Nodes {
		ci, gi := lab.comp[i], lab.group[i]
		if only >= 0 && ci != only {
			continue
		}
		c := comps[ci]
		if c == nil {
			c = &Component{}
			comps[ci] = c
			out = append(out, c)
		}
		g := groups[gi]
		if g == nil {
			g = &Group{Root: n}
			groups[gi] = g
			c.Groups = append(c.Groups, g)
		}
		g.Members = append(g.Members, n)
	}
	// Group edges: kept edges crossing group boundaries.
	for ei, e := range t.Edges {
		p, ch := e.Parent.Index, e.Child.Index
		if !keep[ei] || only >= 0 && lab.comp[p] != only {
			continue
		}
		pg, cg := groups[lab.group[p]], groups[lab.group[ch]]
		if pg != cg {
			pg.Children = append(pg.Children, &GroupEdge{Child: cg, ParentNode: e.Parent, Label: e.Child.Label})
		}
	}
	for _, c := range out {
		c.Root = c.Groups[0]
		for _, g := range c.Groups {
			t.combineRule(g)
		}
	}
	return out
}

// combineRule builds a group's combined rule and argument list: the union
// of the members' atoms, conditions, and args (§3.5's "conjunction of all
// the nodes' query bodies"). Groups are small, so duplicates are found by
// scanning what has been kept so far.
func (t *Tree) combineRule(g *Group) {
	var atoms []datalog.Atom
	var conds []rxl.Condition
	var posBuf [32]int
	pos := posBuf[:0]
	for _, m := range g.Members {
		for _, a := range m.Atoms {
			if !slices.ContainsFunc(atoms, func(b datalog.Atom) bool { return b.Var == a.Var }) {
				atoms = append(atoms, a)
			}
		}
		for _, c := range m.Conds {
			if !slices.Contains(conds, c) {
				conds = append(conds, c)
			}
		}
		for _, a := range m.KeyArgs {
			pos = append(pos, t.varPos[a])
		}
		for _, a := range m.ContentArgs {
			pos = append(pos, t.varPos[a])
		}
	}
	// Args follow the global variable order so every generator emits
	// columns in a canonical sequence; each name is the tree's, not a new
	// concatenation.
	slices.Sort(pos)
	pos = slices.Compact(pos)
	g.Args = make([]VarRef, len(pos))
	qargs := make([]string, len(pos))
	for i, p := range pos {
		g.Args[i] = t.Vars[p].Ref
		qargs[i] = t.varQ[p]
	}
	g.Rule = &datalog.Rule{
		Head:  g.Root.SkolemName + "'",
		Args:  qargs,
		Atoms: atoms,
		Conds: conds,
	}
}

// AllEdges returns the kept-edge vector of the unified plan (every edge
// kept: one SQL query).
func (t *Tree) AllEdges() []bool {
	keep := make([]bool, len(t.Edges))
	for i := range keep {
		keep[i] = true
	}
	return keep
}

// NoEdges returns the kept-edge vector of the fully partitioned plan (no
// edges kept: one SQL query per node).
func (t *Tree) NoEdges() []bool { return make([]bool, len(t.Edges)) }

// KeepFromBits converts a bitmask over edge indices into a kept-edge
// vector; bit i corresponds to t.Edges[i]. The experiments enumerate all
// 2^|E| plans this way.
func (t *Tree) KeepFromBits(bits uint64) []bool {
	keep := make([]bool, len(t.Edges))
	for i := range keep {
		keep[i] = bits&(1<<uint(i)) != 0
	}
	return keep
}
