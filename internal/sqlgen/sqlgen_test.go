package sqlgen

import (
	"strings"
	"testing"

	"silkroute/internal/rxl"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlparse"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
)

func fragTree(t *testing.T) *viewtree.Tree {
	t.Helper()
	q, err := rxl.Parse(rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, tpch.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func gen1(t *testing.T, tree *viewtree.Tree, keep []bool, reduce bool, style Style) []*Stream {
	t.Helper()
	comps, err := tree.Partition(keep, reduce)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := Generate(tree, comps, style)
	if err != nil {
		t.Fatal(err)
	}
	return streams
}

func TestStyleString(t *testing.T) {
	if OuterJoin.String() != "outer-join" || OuterUnion.String() != "outer-union" {
		t.Error("style names wrong")
	}
}

func TestFullyPartitionedNeedsNoJoinsOrUnions(t *testing.T) {
	tree := fragTree(t)
	streams := gen1(t, tree, tree.NoEdges(), false, OuterJoin)
	if len(streams) != 3 {
		t.Fatalf("streams = %d", len(streams))
	}
	for _, s := range streams {
		sql := s.SQL()
		if strings.Contains(sql, "outer join") || strings.Contains(sql, "union") {
			t.Errorf("fully partitioned stream uses join/union constructs: %s", sql)
		}
	}
}

func TestUnifiedPlanUsesOuterJoinAndUnion(t *testing.T) {
	tree := fragTree(t)
	streams := gen1(t, tree, tree.AllEdges(), false, OuterJoin)
	if len(streams) != 1 {
		t.Fatalf("streams = %d", len(streams))
	}
	sql := streams[0].SQL()
	if !strings.Contains(sql, "left outer join") {
		t.Errorf("unified plan lacks outer join: %s", sql)
	}
	if !strings.Contains(sql, "union") {
		t.Errorf("unified plan lacks outer union (two sibling branches): %s", sql)
	}
}

func TestSingleBranchNeedsNoUnion(t *testing.T) {
	// Keep only supplier→part: the child query has a single branch, so no
	// union operator is required (§3.4: "plans with no branches do not
	// require the union operator").
	tree := fragTree(t)
	keep := tree.NoEdges()
	for _, e := range tree.Edges {
		if e.Child.Tag == "part" {
			keep[e.Index] = true
		}
	}
	streams := gen1(t, tree, keep, false, OuterJoin)
	for _, s := range streams {
		if strings.Contains(s.SQL(), "union") {
			t.Errorf("single-branch component emitted a union: %s", s.SQL())
		}
	}
}

func TestGuaranteedChildUsesInnerJoin(t *testing.T) {
	// Keep only supplier→nation ('1'-labeled, guaranteed by the total
	// foreign key): the paper's footnote says the outer join disappears.
	tree := fragTree(t)
	keep := tree.NoEdges()
	for _, e := range tree.Edges {
		if e.Child.Tag == "nation" {
			keep[e.Index] = true
		}
	}
	streams := gen1(t, tree, keep, false, OuterJoin)
	var found bool
	for _, s := range streams {
		sql := s.SQL()
		if strings.Contains(sql, "join") {
			found = true
			if strings.Contains(sql, "outer join") {
				t.Errorf("guaranteed child still uses an outer join: %s", sql)
			}
		}
	}
	if !found {
		t.Error("no stream contained the kept join")
	}
}

func TestGeneratedSQLReparses(t *testing.T) {
	tree := fragTree(t)
	for bits := uint64(0); bits < 4; bits++ {
		for _, reduce := range []bool{false, true} {
			for _, style := range []Style{OuterJoin, OuterUnion} {
				streams := gen1(t, tree, tree.KeepFromBits(bits), reduce, style)
				for _, s := range streams {
					if _, err := sqlparse.Parse(s.SQL()); err != nil {
						t.Errorf("bits=%b reduce=%v style=%v: generated SQL does not reparse: %v\n%s",
							bits, reduce, style, err, s.SQL())
					}
				}
			}
		}
	}
}

func TestStreamColsMatchQueryOutput(t *testing.T) {
	tree := fragTree(t)
	for bits := uint64(0); bits < 4; bits++ {
		streams := gen1(t, tree, tree.KeepFromBits(bits), true, OuterJoin)
		for _, s := range streams {
			out := sqlast.OutputColumns(s.Query)
			if len(out) != len(s.Cols) {
				t.Fatalf("bits=%b: %d output columns, %d metadata entries", bits, len(out), len(s.Cols))
			}
			for i := range out {
				if out[i] != s.Cols[i].Name {
					t.Errorf("bits=%b col %d: query %q vs meta %q", bits, i, out[i], s.Cols[i].Name)
				}
			}
		}
	}
}

func TestStructuralOrderByCoversLAndVars(t *testing.T) {
	tree := fragTree(t)
	streams := gen1(t, tree, tree.AllEdges(), false, OuterJoin)
	sql := streams[0].SQL()
	idx := strings.Index(sql, "order by")
	if idx < 0 {
		t.Fatal("no order by")
	}
	tail := sql[idx:]
	// The L2 column must sort before the level-2 variables.
	l2 := strings.Index(tail, "L2")
	name := strings.Index(tail, "v_n_name")
	pname := strings.Index(tail, "v_p_name")
	if l2 < 0 || name < 0 || pname < 0 {
		t.Fatalf("order by incomplete: %s", tail)
	}
	if l2 > name || l2 > pname {
		t.Errorf("L2 does not precede level-2 variables: %s", tail)
	}
}

func TestOuterUnionStyleBranchesPerLeaf(t *testing.T) {
	tree := fragTree(t)
	streams := gen1(t, tree, tree.AllEdges(), false, OuterUnion)
	u, ok := streams[0].Query.(*sqlast.Union)
	if !ok {
		t.Fatalf("outer-union unified query is %T", streams[0].Query)
	}
	// Two leaves (nation, part) → two branches.
	if len(u.Branches) != 2 {
		t.Errorf("branches = %d, want 2", len(u.Branches))
	}
}

func TestConstantElementGetsFillerColumn(t *testing.T) {
	q, err := rxl.Parse(`construct <root @R()><x/></root>`)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, tpch.Schema())
	if err != nil {
		t.Fatal(err)
	}
	streams := gen1(t, tree, tree.NoEdges(), false, OuterJoin)
	for _, s := range streams {
		if len(s.Cols) == 0 {
			t.Error("variable-free stream has no columns at all")
		}
		if _, err := sqlparse.Parse(s.SQL()); err != nil {
			t.Errorf("filler SQL does not reparse: %v (%s)", err, s.SQL())
		}
	}
}

func TestMangleStability(t *testing.T) {
	a := viewtree.VarRef{Var: "S", Field: "SuppKey"}.Column()
	b := viewtree.VarRef{Var: "s", Field: "suppkey"}.Column()
	if a != b || a != "v_s_suppkey" {
		t.Errorf("mangle not canonical: %q vs %q", a, b)
	}
}

func TestQuery1UnifiedGeneration(t *testing.T) {
	q, err := rxl.Parse(rxl.Query1Source)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, tpch.Schema())
	if err != nil {
		t.Fatal(err)
	}
	streams := gen1(t, tree, tree.AllEdges(), true, OuterJoin)
	if len(streams) != 1 {
		t.Fatalf("streams = %d", len(streams))
	}
	sql := streams[0].SQL()
	if _, err := sqlparse.Parse(sql); err != nil {
		t.Fatalf("Query 1 unified SQL does not reparse: %v", err)
	}
	// Reduced unified Query 1 has exactly two dynamic branching levels
	// (the two '*' edges): L2 (part under supplier) and L3 (order under
	// part).
	var lCols []string
	for _, c := range streams[0].Cols {
		if c.IsL {
			lCols = append(lCols, c.Name)
		}
	}
	if len(lCols) != 2 || lCols[0] != "L2" || lCols[1] != "L3" {
		t.Errorf("dynamic L columns = %v, want [L2 L3]", lCols)
	}
}

// TestSlabsSizedExactly checks the plan pass against the build pass: over
// every plan of the paper's views, reduced or not, in both styles, every
// node the queries need comes from its slab and no slab element is left
// over, and neither the alias buffer nor the position buffer grows.
func TestSlabsSizedExactly(t *testing.T) {
	for _, src := range []string{rxl.Query1Source, rxl.Query2Source, rxl.FragmentSource} {
		q, err := rxl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := viewtree.Build(q, tpch.Schema())
		if err != nil {
			t.Fatal(err)
		}
		for bits := uint64(0); bits < 1<<uint(len(tree.Edges)); bits++ {
			for _, reduce := range []bool{false, true} {
				comps, err := tree.Partition(tree.KeepFromBits(bits), reduce)
				if err != nil {
					t.Fatal(err)
				}
				for _, style := range []Style{OuterJoin, OuterUnion} {
					_, g, err := generate(tree, comps, style)
					if err != nil {
						t.Fatal(err)
					}
					if g.missed != 0 || g.sl.left() != 0 || g.names.Len() != g.n.aliasBytes || len(g.pos) != cap(g.pos) {
						t.Fatalf("edges %b reduce=%v %v: %d takes missed their slab, %d slab elements left, alias bytes %d of %d, positions %d of %d",
							bits, reduce, style, g.missed, g.sl.left(), g.names.Len(), g.n.aliasBytes, len(g.pos), cap(g.pos))
					}
				}
			}
		}
	}
}
