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
//
// A first pass counts the components, groups, members, group edges and
// rule parts; every one of them is then carved from a slab of its kind,
// so a call allocates per kind, not per group.
func (t *Tree) build(keep []bool, lab labelling, only int) []*Component {
	n := len(t.Nodes)
	// compAt and groupAt give the slab index of the component or group
	// rooted at a node, -1 before it is met; the counts are by slab index.
	idx := make([]int, 5*n)
	compAt, groupAt := idx[:n:n], idx[n:2*n:2*n]
	groupsIn, membersIn, edgesOut := idx[2*n:3*n:3*n], idx[3*n:4*n:4*n], idx[4*n:]
	for i := range n {
		compAt[i], groupAt[i] = -1, -1
	}
	var nComps, nGroups, nMembers, nEdges int
	for i := range t.Nodes {
		ci, gi := lab.comp[i], lab.group[i]
		if only >= 0 && ci != only {
			continue
		}
		if compAt[ci] < 0 {
			compAt[ci] = nComps
			nComps++
		}
		if groupAt[gi] < 0 {
			groupAt[gi] = nGroups
			groupsIn[compAt[ci]]++
			nGroups++
		}
		membersIn[groupAt[gi]]++
		nMembers++
	}
	// Group edges: kept edges crossing group boundaries.
	crosses := func(ei int) bool {
		e := t.Edges[ei]
		p, ch := e.Parent.Index, e.Child.Index
		return keep[ei] && (only < 0 || lab.comp[p] == only) && lab.group[p] != lab.group[ch]
	}
	for ei, e := range t.Edges {
		if crosses(ei) {
			edgesOut[groupAt[lab.group[e.Parent.Index]]]++
			nEdges++
		}
	}

	comps := make([]Component, nComps)
	out := make([]*Component, nComps)
	groups := make([]Group, nGroups)
	groupPtrs := make([]*Group, nGroups)
	members := make([]*Node, nMembers)
	edges := make([]GroupEdge, 0, nEdges)
	edgePtrs := make([]*GroupEdge, nEdges)
	for i := range comps {
		out[i] = &comps[i]
		comps[i].Groups, groupPtrs = groupPtrs[:0:groupsIn[i]], groupPtrs[groupsIn[i]:]
	}
	for i := range groups {
		g := &groups[i]
		g.Members, members = members[:0:membersIn[i]], members[membersIn[i]:]
		g.Children, edgePtrs = edgePtrs[:0:edgesOut[i]], edgePtrs[edgesOut[i]:]
	}
	for i, nd := range t.Nodes {
		ci, gi := lab.comp[i], lab.group[i]
		if only >= 0 && ci != only {
			continue
		}
		c, g := &comps[compAt[ci]], &groups[groupAt[gi]]
		if len(g.Members) == 0 {
			g.Root = nd
			c.Groups = append(c.Groups, g)
		}
		g.Members = append(g.Members, nd)
	}
	for ei, e := range t.Edges {
		if !crosses(ei) {
			continue
		}
		pg := &groups[groupAt[lab.group[e.Parent.Index]]]
		edges = append(edges, GroupEdge{Child: &groups[groupAt[lab.group[e.Child.Index]]], ParentNode: e.Parent, Label: e.Child.Label})
		pg.Children = append(pg.Children, &edges[len(edges)-1])
	}
	for i := range comps {
		comps[i].Root = comps[i].Groups[0]
	}
	t.combineRules(groups)
	return out
}

// combineRules builds every group's combined rule and argument list: the
// union of the members' atoms, conditions, and args (§3.5's "conjunction
// of all the nodes' query bodies"). Groups are small, so duplicates are
// found by scanning what has been kept so far. A first pass counts the
// distinct parts, so that the rules, atoms, conditions and args come from
// one slab each.
func (t *Tree) combineRules(groups []Group) {
	var nAtoms, nConds, nArgs int
	var atomBuf [16]datalog.Atom
	var condBuf [16]rxl.Condition
	var posBuf [32]int
	for i := range groups {
		a, c := union(&groups[i], atomBuf[:0], condBuf[:0])
		nAtoms += len(a)
		nConds += len(c)
		nArgs += len(t.argPos(&groups[i], posBuf[:0]))
	}
	rules := make([]datalog.Rule, len(groups))
	atoms := make([]datalog.Atom, nAtoms)
	conds := make([]rxl.Condition, nConds)
	args := make([]VarRef, nArgs)
	qargs := make([]string, nArgs)
	for i := range groups {
		g, r := &groups[i], &rules[i]
		r.Atoms, r.Conds = union(g, atoms[:0], conds[:0])
		r.Atoms, r.Conds = slices.Clip(r.Atoms), slices.Clip(r.Conds)
		atoms, conds = atoms[len(r.Atoms):], conds[len(r.Conds):]
		// Args follow the global variable order so every generator emits
		// columns in a canonical sequence; each name is the tree's, not a
		// new concatenation.
		pos := t.argPos(g, posBuf[:0])
		g.Args, args = args[:len(pos):len(pos)], args[len(pos):]
		r.Args, qargs = qargs[:len(pos):len(pos)], qargs[len(pos):]
		for j, p := range pos {
			g.Args[j] = t.Vars[p].Ref
			r.Args[j] = t.varQ[p]
		}
		r.Head = g.Root.groupHead
		g.Rule = r
	}
}

// union appends the distinct atoms (by tuple variable) and conditions of a
// group's members to atoms and conds.
func union(g *Group, atoms []datalog.Atom, conds []rxl.Condition) ([]datalog.Atom, []rxl.Condition) {
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
	}
	return atoms, conds
}

// argPos appends the distinct indices in Vars of a group's member args to
// dst, in ascending order.
func (t *Tree) argPos(g *Group, dst []int) []int {
	for _, m := range g.Members {
		for _, a := range m.KeyArgs {
			dst = append(dst, t.varPos[a])
		}
		for _, a := range m.ContentArgs {
			dst = append(dst, t.varPos[a])
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
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
