package viewtree

import (
	"reflect"
	"testing"

	"silkroute/internal/rxl"
	"silkroute/internal/schema"
	"silkroute/internal/tpch"
	"silkroute/internal/value"
)

func buildQuery(t *testing.T, src string) *Tree {
	t.Helper()
	q, err := rxl.Parse(src)
	if err != nil {
		t.Fatalf("rxl parse: %v", err)
	}
	tree, err := Build(q, tpch.Schema())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree
}

func findByTag(t *testing.T, tree *Tree, tag string) *Node {
	t.Helper()
	for _, n := range tree.Nodes {
		if n.Tag == tag {
			return n
		}
	}
	t.Fatalf("no node with tag %q", tag)
	return nil
}

func TestFragmentTreeShape(t *testing.T) {
	tree := buildQuery(t, rxl.FragmentSource)
	if len(tree.Nodes) != 3 || len(tree.Edges) != 2 {
		t.Fatalf("fragment tree: %d nodes, %d edges", len(tree.Nodes), len(tree.Edges))
	}
	root := tree.Roots[0]
	if root.Tag != "supplier" || SFIString(root.SFI) != "S1" {
		t.Errorf("root = %s %s", root.Tag, SFIString(root.SFI))
	}
	nation := findByTag(t, tree, "nation")
	part := findByTag(t, tree, "part")
	if SFIString(nation.SFI) != "S1.1" || SFIString(part.SFI) != "S1.2" {
		t.Errorf("SFIs: nation=%s part=%s", SFIString(nation.SFI), SFIString(part.SFI))
	}
	// Fig. 4's labels: supplier—nation is 1, supplier—part is *.
	if nation.Label != One {
		t.Errorf("nation label = %s, want 1", nation.Label)
	}
	if part.Label != ZeroOrMore {
		t.Errorf("part label = %s, want *", part.Label)
	}
}

func TestFragmentSkolemTermVariableIndices(t *testing.T) {
	tree := buildQuery(t, rxl.FragmentSource)
	// §3.1: suppkey is (1,1) — level one, first variable.
	vi, ok := tree.VarIndex(VarRef{Var: "s", Field: "suppkey"})
	if !ok {
		t.Fatal("s.suppkey not indexed")
	}
	if vi.Level != 1 || vi.Ord != 1 {
		t.Errorf("suppkey index = (%d,%d), want (1,1)", vi.Level, vi.Ord)
	}
	// Level-2 variables: the nation node's args introduce n.nationkey and
	// n.name; the part node introduces ps keys and p.name.
	l2 := varsAtLevel(tree, 2)
	if len(l2) == 0 {
		t.Fatal("no level-2 variables")
	}
	for i := 1; i < len(l2); i++ {
		if l2[i].Ord <= l2[i-1].Ord {
			t.Errorf("level-2 ords not increasing: %v", l2)
		}
	}
	// Global positions: all level-1 vars precede all level-2 vars.
	for _, v1 := range varsAtLevel(tree, 1) {
		for _, v2 := range l2 {
			if v1.Pos >= v2.Pos {
				t.Errorf("global order violated: %v >= %v", v1, v2)
			}
		}
	}
}

// varsAtLevel returns the variables introduced at level p, in q order.
func varsAtLevel(tree *Tree, p int) []VarInfo {
	var out []VarInfo
	for _, v := range tree.Vars {
		if v.Level == p {
			out = append(out, v)
		}
	}
	return out
}

func TestQuery1TreeShapeAndLabels(t *testing.T) {
	tree := buildQuery(t, rxl.Query1Source)
	if len(tree.Nodes) != 10 || len(tree.Edges) != 9 {
		t.Fatalf("Query 1 tree: %d nodes, %d edges (want 10, 9)", len(tree.Nodes), len(tree.Edges))
	}
	wantLabels := map[string]Multiplicity{
		"name":     One,
		"nation":   One,
		"region":   One,
		"part":     ZeroOrMore,
		"pname":    One,
		"order":    ZeroOrMore,
		"okey":     One,
		"customer": One,
		"cnation":  One,
	}
	for tag, want := range wantLabels {
		n := findByTag(t, tree, tag)
		if n.Label != want {
			t.Errorf("%s label = %s, want %s", tag, n.Label, want)
		}
	}
	// The two '*' edges are nested in a chain: order under part.
	order := findByTag(t, tree, "order")
	if order.Parent.Tag != "part" {
		t.Errorf("order's parent = %s, want part", order.Parent.Tag)
	}
	if tree.MaxDepth() != 4 {
		t.Errorf("max depth = %d, want 4", tree.MaxDepth())
	}
}

func TestQuery2ParallelStars(t *testing.T) {
	tree := buildQuery(t, rxl.Query2Source)
	if len(tree.Nodes) != 10 || len(tree.Edges) != 9 {
		t.Fatalf("Query 2 tree: %d nodes, %d edges", len(tree.Nodes), len(tree.Edges))
	}
	part := findByTag(t, tree, "part")
	order := findByTag(t, tree, "order")
	if part.Label != ZeroOrMore || order.Label != ZeroOrMore {
		t.Errorf("labels: part=%s order=%s, want * *", part.Label, order.Label)
	}
	// The two '*' edges are parallel: both children of supplier.
	if part.Parent.Tag != "supplier" || order.Parent.Tag != "supplier" {
		t.Errorf("parents: part=%s order=%s", part.Parent.Tag, order.Parent.Tag)
	}
	if tree.MaxDepth() != 3 {
		t.Errorf("max depth = %d, want 3", tree.MaxDepth())
	}
}

func TestSFIsAreBreadthFirst(t *testing.T) {
	tree := buildQuery(t, rxl.Query1Source)
	// Nodes were collected breadth-first: levels never decrease.
	for i := 1; i < len(tree.Nodes); i++ {
		if tree.Nodes[i].Level() < tree.Nodes[i-1].Level() {
			t.Errorf("BFS violated at node %d", i)
		}
	}
	// Each node's SFI extends its parent's by its ordinal.
	for _, e := range tree.Edges {
		p, c := e.Parent.SFI, e.Child.SFI
		if len(c) != len(p)+1 {
			t.Errorf("SFI length: %v child of %v", c, p)
		}
		for i := range p {
			if c[i] != p[i] {
				t.Errorf("SFI prefix: %v child of %v", c, p)
			}
		}
		if c[len(c)-1] != e.Child.Ordinal() {
			t.Errorf("ordinal mismatch for %v", c)
		}
	}
}

func TestSkolemNamesUnique(t *testing.T) {
	tree := buildQuery(t, rxl.Query1Source)
	seen := make(map[string]bool)
	for _, n := range tree.Nodes {
		if seen[n.SkolemName] {
			t.Errorf("duplicate Skolem name %s", n.SkolemName)
		}
		seen[n.SkolemName] = true
	}
}

func TestTupleVariableRenaming(t *testing.T) {
	// Query 1 binds Nation twice ($n in two sibling blocks) and the paper
	// itself uses $n2 for the customer's nation. All uses must get unique
	// aliases.
	tree := buildQuery(t, rxl.Query1Source)
	vars := make(map[string]string) // alias → relation
	for _, n := range tree.Nodes {
		for _, a := range n.Atoms {
			if rel, ok := vars[a.Var]; ok && rel != a.Rel {
				t.Errorf("alias %s bound to both %s and %s", a.Var, rel, a.Rel)
			}
			vars[a.Var] = a.Rel
		}
	}
	nationAliases := 0
	for _, rel := range vars {
		if rel == "Nation" {
			nationAliases++
		}
	}
	if nationAliases != 3 {
		t.Errorf("Nation bound %d times, want 3 (two $n blocks + $n2)", nationAliases)
	}
}

func TestArgsIncludeScopeKeysAndContentVars(t *testing.T) {
	tree := buildQuery(t, rxl.Query1Source)
	part := findByTag(t, tree, "part")
	args := part.Args()
	var hasSupp, hasPartkey bool
	for _, a := range args {
		if a.Field == "suppkey" && a.Var == "s" {
			hasSupp = true
		}
		if a.Field == "partkey" {
			hasPartkey = true
		}
	}
	if !hasSupp || !hasPartkey {
		t.Errorf("part args missing scope keys: %v", args)
	}
	pname := findByTag(t, tree, "pname")
	var hasName bool
	for _, a := range pname.Args() {
		if a.Field == "name" {
			hasName = true
		}
	}
	if !hasName {
		t.Errorf("pname args missing content var: %v", pname.Args())
	}
}

func TestExplicitSkolem(t *testing.T) {
	tree := buildQuery(t, `from Supplier $s construct
		<supplier @Supp($s.suppkey)><x>$s.name</x></supplier>`)
	root := tree.Roots[0]
	if root.SkolemName != "Supp" {
		t.Errorf("Skolem name = %q", root.SkolemName)
	}
	if len(root.KeyArgs) != 1 || root.KeyArgs[0].Field != "suppkey" {
		t.Errorf("explicit args = %v", root.KeyArgs)
	}
}

func TestBuildErrors(t *testing.T) {
	bad := []string{
		`from Ghost $g construct <x>$g.a</x>`,                                  // unknown relation
		`from Supplier $s construct <x>$s.ghost</x>`,                           // unknown column
		`from Supplier $s where $q.a = 1 construct <x>$s.name</x>`,             // unbound variable
		`from Supplier $s construct <x @F(3)><y/></x>`,                         // constant Skolem arg
		`from Supplier $s construct <x @F($s.suppkey)><y @F($s.suppkey)/></x>`, // duplicate Skolem fn
	}
	for _, src := range bad {
		q, err := rxl.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Build(q, tpch.Schema()); err == nil {
			t.Errorf("Build(%q) succeeded, want error", src)
		}
	}
}

func TestPartitionComponentCounts(t *testing.T) {
	tree := buildQuery(t, rxl.Query1Source)
	cases := []struct {
		keep []bool
		want int
	}{
		{tree.AllEdges(), 1},
		{tree.NoEdges(), 10},
	}
	for _, c := range cases {
		comps, err := tree.Partition(c.keep, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(comps) != c.want {
			t.Errorf("components = %d, want %d", len(comps), c.want)
		}
	}
	// Every one of the 512 plans has #components = 10 − #kept.
	for bits := uint64(0); bits < 1<<9; bits += 37 {
		keep := tree.KeepFromBits(bits)
		kept := 0
		for _, k := range keep {
			if k {
				kept++
			}
		}
		comps, err := tree.Partition(keep, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(comps) != 10-kept {
			t.Errorf("bits %b: components = %d, want %d", bits, len(comps), 10-kept)
		}
	}
}

func TestComponentMatchesPartition(t *testing.T) {
	// Component must return exactly Partition's component for its seed:
	// the same groups, members, rules, args and group edges, in the same
	// order. Checked for every seed of every plan of Q1 and Q2 × reduced.
	for _, src := range []string{rxl.Query1Source, rxl.Query2Source} {
		tree := buildQuery(t, src)
		for _, reduce := range []bool{false, true} {
			for bits := uint64(0); bits < 1<<uint(len(tree.Edges)); bits++ {
				keep := tree.KeepFromBits(bits)
				comps, err := tree.Partition(keep, reduce)
				if err != nil {
					t.Fatal(err)
				}
				roots, err := tree.ComponentRoots(keep)
				if err != nil {
					t.Fatal(err)
				}
				for _, want := range comps {
					for _, g := range want.Groups {
						for _, seed := range g.Members {
							got, err := tree.Component(keep, seed, reduce)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("bits %b reduce=%v seed %s: Component differs from Partition's component",
									bits, reduce, seed.SkolemName)
							}
							if r := roots[seed.Index]; tree.Nodes[r] != want.Root.Root {
								t.Fatalf("bits %b seed %s: component root %s, want %s",
									bits, seed.SkolemName, tree.Nodes[r].SkolemName, want.Root.Root.SkolemName)
							}
						}
					}
				}
			}
		}
	}
}

func TestComponentRejectsForeignSeed(t *testing.T) {
	tree := buildQuery(t, rxl.Query1Source)
	other := buildQuery(t, rxl.Query1Source)
	if _, err := tree.Component(tree.AllEdges(), other.Nodes[3], false); err == nil {
		t.Error("seed from another tree accepted")
	}
	if _, err := tree.Component(make([]bool, 99), tree.Nodes[0], false); err == nil {
		t.Error("wrong-length keep vector accepted")
	}
}

func TestPartitionWrongLength(t *testing.T) {
	tree := buildQuery(t, rxl.FragmentSource)
	if _, err := tree.Partition(make([]bool, 99), false); err == nil {
		t.Error("wrong-length keep vector accepted")
	}
}

func TestReductionCollapsesOneEdges(t *testing.T) {
	tree := buildQuery(t, rxl.Query1Source)
	comps, err := tree.Partition(tree.AllEdges(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 1 {
		t.Fatalf("unified plan has %d components", len(comps))
	}
	// Reduction groups: {supplier,name,nation,region}, {part,pname},
	// {order,okey,customer,cnation} — matching Fig. 11's class structure
	// (three classes joined by the two '*' edges).
	groups := comps[0].Groups
	if len(groups) != 3 {
		t.Fatalf("reduced unified plan has %d groups, want 3", len(groups))
	}
	sizes := []int{len(groups[0].Members), len(groups[1].Members), len(groups[2].Members)}
	if sizes[0] != 4 || sizes[1] != 2 || sizes[2] != 4 {
		t.Errorf("group sizes = %v, want [4 2 4]", sizes)
	}
	if groups[0].Root.Tag != "supplier" || groups[1].Root.Tag != "part" || groups[2].Root.Tag != "order" {
		t.Errorf("group roots = %s %s %s", groups[0].Root.Tag, groups[1].Root.Tag, groups[2].Root.Tag)
	}
	// Combined rule of the supplier group covers nation and region atoms.
	if len(groups[0].Rule.Atoms) < 4 {
		t.Errorf("supplier group rule atoms = %v", groups[0].Rule.Atoms)
	}
}

func TestReductionRespectsCutEdges(t *testing.T) {
	tree := buildQuery(t, rxl.Query1Source)
	// Cut the supplier→nation edge; nation must stay its own component
	// even though the edge is labeled '1'.
	keep := tree.AllEdges()
	for _, e := range tree.Edges {
		if e.Child.Tag == "nation" {
			keep[e.Index] = false
		}
	}
	comps, err := tree.Partition(keep, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	var nationComp *Component
	for _, c := range comps {
		if c.Root.Root.Tag == "nation" {
			nationComp = c
		}
	}
	if nationComp == nil {
		t.Fatal("no component rooted at nation")
	}
	if len(nationComp.Groups) != 1 || len(nationComp.Groups[0].Members) != 1 {
		t.Error("cut nation node merged despite the cut")
	}
}

func TestGroupArgsFollowGlobalOrder(t *testing.T) {
	tree := buildQuery(t, rxl.Query1Source)
	comps, err := tree.Partition(tree.AllEdges(), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		for _, g := range c.Groups {
			last := -1
			for _, a := range g.Args {
				vi, ok := tree.VarIndex(a)
				if !ok {
					t.Fatalf("group arg %v not in global index", a)
				}
				if vi.Pos <= last {
					t.Errorf("group args out of global order: %v", g.Args)
				}
				last = vi.Pos
			}
		}
	}
}

func TestMultiplicityHelpers(t *testing.T) {
	if !One.AtMostOne() || !One.AtLeastOne() {
		t.Error("One helpers wrong")
	}
	if !ZeroOrOne.AtMostOne() || ZeroOrOne.AtLeastOne() {
		t.Error("ZeroOrOne helpers wrong")
	}
	if OneOrMore.AtMostOne() || !OneOrMore.AtLeastOne() {
		t.Error("OneOrMore helpers wrong")
	}
	if ZeroOrMore.AtMostOne() || ZeroOrMore.AtLeastOne() {
		t.Error("ZeroOrMore helpers wrong")
	}
	glyphs := map[Multiplicity]string{One: "1", ZeroOrOne: "?", OneOrMore: "+", ZeroOrMore: "*"}
	for m, g := range glyphs {
		if m.String() != g {
			t.Errorf("%d glyph = %s, want %s", m, m.String(), g)
		}
	}
}

// customSchema builds a schema where the parent→child edge exercises the
// rarer '?' and '+' labels of §3.5's truth table.
func customSchema(t *testing.T, totalFK bool) *schema.Schema {
	t.Helper()
	s := schema.New()
	s.MustAddRelation("Parent", []string{"pk"},
		schema.Column{Name: "pk", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString})
	s.MustAddRelation("Single", []string{"pk"},
		schema.Column{Name: "pk", Type: value.KindInt},
		schema.Column{Name: "detail", Type: value.KindString})
	s.MustAddRelation("Multi", []string{"mk"},
		schema.Column{Name: "mk", Type: value.KindInt},
		schema.Column{Name: "pk", Type: value.KindInt},
		schema.Column{Name: "note", Type: value.KindString})
	s.MustAddForeignKey(schema.ForeignKey{
		FromRelation: "Parent", FromColumns: []string{"pk"},
		ToRelation: "Single", ToColumns: []string{"pk"}, Total: totalFK})
	s.MustAddForeignKey(schema.ForeignKey{
		FromRelation: "Parent", FromColumns: []string{"pk"},
		ToRelation: "Multi", ToColumns: []string{"pk"}, Total: totalFK})
	return s
}

const labelQuery = `
from Parent $p
construct
<parent>
  { from Single $s where $p.pk = $s.pk construct <single>$s.detail</single> }
  { from Multi $m where $p.pk = $m.pk construct <multi>$m.note</multi> }
</parent>`

func TestZeroOrOneLabelWithoutTotalFK(t *testing.T) {
	// Functionally determined (joined on Single's key) but not guaranteed
	// (the FK is not total): '?'.
	q, err := rxl.Parse(labelQuery)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(q, customSchema(t, false))
	if err != nil {
		t.Fatal(err)
	}
	single := findByTag(t, tree, "single")
	if single.Label != ZeroOrOne {
		t.Errorf("single label = %s, want ?", single.Label)
	}
	multi := findByTag(t, tree, "multi")
	if multi.Label != ZeroOrMore {
		t.Errorf("multi label = %s, want *", multi.Label)
	}
}

func TestOneOrMoreLabelWithTotalNonKeyFK(t *testing.T) {
	// Guaranteed (total FK into Multi's non-key column) but not
	// functionally determined (Multi's key mk stays free): '+'.
	q, err := rxl.Parse(labelQuery)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(q, customSchema(t, true))
	if err != nil {
		t.Fatal(err)
	}
	single := findByTag(t, tree, "single")
	if single.Label != One {
		t.Errorf("single label = %s, want 1", single.Label)
	}
	multi := findByTag(t, tree, "multi")
	if multi.Label != OneOrMore {
		t.Errorf("multi label = %s, want +", multi.Label)
	}
}

func TestBuildAllocs(t *testing.T) {
	// One Build of each Fig. 18 view, with its allocation count when the
	// ceiling was set. The ceiling is that count plus 3 %; a fall of more
	// than 5 % is logged so the constant can be lowered.
	if testing.Short() {
		t.Skip("allocation count in -short mode")
	}
	s := tpch.Schema()
	for _, c := range []struct {
		name, src string
		allocs    float64
	}{
		{"Q1", rxl.Query1Source, 754},
		{"Q2", rxl.Query2Source, 698},
	} {
		t.Run(c.name, func(t *testing.T) {
			q, err := rxl.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(20, func() {
				if _, err := Build(q, s); err != nil {
					t.Fatal(err)
				}
			})
			ceiling := c.allocs * 1.03
			t.Logf("view-tree build allocates %.0f times, figure %.0f", got, c.allocs)
			if got > ceiling {
				t.Errorf("view-tree build allocates %.0f times, ceiling %.0f", got, ceiling)
			} else if got < c.allocs*0.95 {
				t.Logf("view-tree build allocates %.0f times, more than 5 %% under %.0f: lower it", got, c.allocs)
			}
		})
	}
}
