package plan

import (
	"testing"

	"silkroute/internal/rxl"
	"silkroute/internal/schema"
	"silkroute/internal/sqlgen"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
)

func permTree(t *testing.T) *viewtree.Tree {
	t.Helper()
	q, err := rxl.Parse(rxl.Query1Source)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, tpch.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestFullyPartitionedAlwaysPermissible(t *testing.T) {
	tree := permTree(t)
	p := FullyPartitioned(tree)
	for _, caps := range []schema.Capabilities{
		{}, {LeftOuterJoin: true}, {OuterUnion: true}, schema.AllCapabilities,
	} {
		ok, err := p.Permissible(caps)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("fully partitioned not permissible under %+v", caps)
		}
	}
}

func TestUnifiedNeedsOuterJoinAndUnion(t *testing.T) {
	tree := permTree(t)
	p := Unified(tree, false)
	if ok, _ := p.Permissible(schema.Capabilities{OuterUnion: true}); ok {
		t.Error("unified plan permissible without left outer join")
	}
	if ok, _ := p.Permissible(schema.Capabilities{LeftOuterJoin: true}); ok {
		t.Error("unified plan permissible without outer union")
	}
	if ok, _ := p.Permissible(schema.AllCapabilities); !ok {
		t.Error("unified plan not permissible with full capabilities")
	}
}

func TestKeepingOnlyGuaranteedEdgeAvoidsOuterJoin(t *testing.T) {
	tree := permTree(t)
	// Keep only supplier→nation ('1' edge): an inner join suffices, and a
	// single branch needs no union.
	keep := tree.NoEdges()
	for _, e := range tree.Edges {
		if e.Child.Tag == "nation" {
			keep[e.Index] = true
		}
	}
	p := &Plan{Tree: tree, Keep: keep, Style: sqlgen.OuterJoin}
	ok, err := p.Permissible(schema.Capabilities{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("single guaranteed edge should need no optional constructs")
	}
}

func TestReductionRemovesUnionNeed(t *testing.T) {
	tree := permTree(t)
	// Keep the three '1' edges under supplier. Without reduction, three
	// sibling branches need the union; with reduction they merge into one
	// group and need nothing.
	keep := tree.NoEdges()
	for _, e := range tree.Edges {
		if e.Parent.Tag == "supplier" && e.Child.Label == viewtree.One {
			keep[e.Index] = true
		}
	}
	noUnion := schema.Capabilities{LeftOuterJoin: true}
	plain := &Plan{Tree: tree, Keep: keep, Reduce: false, Style: sqlgen.OuterJoin}
	if ok, _ := plain.Permissible(noUnion); ok {
		t.Error("three sibling branches should need the union without reduction")
	}
	reduced := &Plan{Tree: tree, Keep: keep, Reduce: true, Style: sqlgen.OuterJoin}
	if ok, _ := reduced.Permissible(noUnion); !ok {
		t.Error("reduction should eliminate the union requirement")
	}
}

func TestBestPermissibleFallsBackUnderWeakTargets(t *testing.T) {
	db := tpch.Generate(0.001, 42)
	tree, err := viewtree.Build(mustParse(t, rxl.Query1Source), db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	full, err := BestPermissible(ctx, db, tree, DefaultGreedyParams(true), schema.AllCapabilities)
	if err != nil {
		t.Fatal(err)
	}
	if full.KeptEdges() == 0 {
		t.Error("full-capability target should allow a merged plan")
	}
	weak, err := BestPermissible(ctx, db, tree, DefaultGreedyParams(false), schema.Capabilities{})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := weak.Permissible(schema.Capabilities{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("BestPermissible returned an impermissible plan")
	}
}

func mustParse(t *testing.T, src string) *rxl.Query {
	t.Helper()
	q, err := rxl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
