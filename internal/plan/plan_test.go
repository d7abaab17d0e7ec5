package plan

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"silkroute/internal/engine"
	"silkroute/internal/rxl"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlgen"
	"silkroute/internal/tpch"
	"silkroute/internal/value"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

// ctx is the do-not-care context for tests that exercise planning and
// execution rather than cancellation; ctx_test.go covers the latter.
var ctx = context.Background()

// fig8DB loads the paper's Fig. 8 database instance into the TPC-H schema.
func fig8DB(t *testing.T) *engine.Database {
	t.Helper()
	db := engine.NewDatabase(tpch.Schema())
	sup := db.MustTable("Supplier")
	sup.MustInsert(value.Int(1), value.String("USA Metalworks"), value.String("New York"), value.Int(24))
	sup.MustInsert(value.Int(2), value.String("Romana Espanola"), value.String("Madrid"), value.Int(3))
	sup.MustInsert(value.Int(3), value.String("Fonderie Francais"), value.String("Paris"), value.Int(19))
	nat := db.MustTable("Nation")
	nat.MustInsert(value.Int(24), value.String("USA"), value.Int(1))
	nat.MustInsert(value.Int(3), value.String("Spain"), value.Int(2))
	nat.MustInsert(value.Int(19), value.String("France"), value.Int(3))
	reg := db.MustTable("Region")
	reg.MustInsert(value.Int(1), value.String("AMERICA"))
	reg.MustInsert(value.Int(2), value.String("EUROPE"))
	reg.MustInsert(value.Int(3), value.String("EUROPE2"))
	ps := db.MustTable("PartSupp")
	ps.MustInsert(value.Int(4), value.Int(1), value.Int(100))
	ps.MustInsert(value.Int(12), value.Int(1), value.Int(320))
	ps.MustInsert(value.Int(20), value.Int(3), value.Int(64))
	part := db.MustTable("Part")
	part.MustInsert(value.Int(4), value.String("plated brass"), value.String("m3"), value.String("Brand1"), value.Int(1), value.Float(904.00))
	part.MustInsert(value.Int(12), value.String("anodized steel"), value.String("m4"), value.String("Brand2"), value.Int(2), value.Float(912.01))
	part.MustInsert(value.Int(20), value.String("polished nickel"), value.String("m1"), value.String("Brand3"), value.Int(3), value.Float(920.02))
	return db
}

func fragmentTree(t *testing.T) *viewtree.Tree {
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

func runPlan(t *testing.T, db *engine.Database, p *Plan) (string, Metrics) {
	t.Helper()
	var buf bytes.Buffer
	m, err := ExecuteDirect(ctx, db, p, &buf)
	if err != nil {
		t.Fatalf("ExecuteDirect: %v", err)
	}
	return buf.String(), m
}

// fig8XML is the expected document for the fragment query over Fig. 8:
// each supplier with its nation and parts, suppliers without parts kept.
const fig8XML = "<document>" +
	"<supplier><nation>USA</nation><part>plated brass</part><part>anodized steel</part></supplier>" +
	"<supplier><nation>Spain</nation></supplier>" +
	"<supplier><nation>France</nation><part>polished nickel</part></supplier>" +
	"</document>"

func TestFragmentUnifiedPlanProducesPaperDocument(t *testing.T) {
	db := fig8DB(t)
	tree := fragmentTree(t)
	got, m := runPlan(t, db, Unified(tree, false))
	if got != fig8XML {
		t.Errorf("unified plan document:\n got: %s\nwant: %s", got, fig8XML)
	}
	if m.Streams != 1 {
		t.Errorf("unified plan streams = %d", m.Streams)
	}
}

func TestFragmentAllFourPlansAgree(t *testing.T) {
	// Fig. 5: the fragment's 2 edges give 4 plans — (a) unified, (b)/(c)
	// one edge cut, (d) fully partitioned. All must produce the document.
	db := fig8DB(t)
	tree := fragmentTree(t)
	for bits := uint64(0); bits < 4; bits++ {
		for _, reduce := range []bool{false, true} {
			p := FromBits(tree, bits, reduce)
			got, m := runPlan(t, db, p)
			if got != fig8XML {
				t.Errorf("plan bits=%b reduce=%v:\n got: %s\nwant: %s", bits, reduce, got, fig8XML)
			}
			if want := 3 - p.KeptEdges(); m.Streams != want {
				t.Errorf("plan bits=%b: %d streams, want %d", bits, m.Streams, want)
			}
		}
	}
}

func TestFragmentOuterUnionStyleAgrees(t *testing.T) {
	db := fig8DB(t)
	tree := fragmentTree(t)
	for _, reduce := range []bool{false, true} {
		p := UnifiedOuterUnion(tree, reduce)
		got, _ := runPlan(t, db, p)
		if got != fig8XML {
			t.Errorf("outer-union reduce=%v:\n got: %s\nwant: %s", reduce, got, fig8XML)
		}
	}
}

func TestFragmentWireExecutionAgrees(t *testing.T) {
	db := fig8DB(t)
	tree := fragmentTree(t)
	client := wire.InProcess(db)
	for bits := uint64(0); bits < 4; bits++ {
		var buf bytes.Buffer
		m, err := ExecuteWire(ctx, client, FromBits(tree, bits, false), &buf)
		if err != nil {
			t.Fatalf("ExecuteWire bits=%b: %v", bits, err)
		}
		if buf.String() != fig8XML {
			t.Errorf("wire bits=%b:\n got: %s\nwant: %s", bits, buf.String(), fig8XML)
		}
		if m.Bytes <= 0 || m.Rows <= 0 {
			t.Errorf("wire metrics: %+v", m)
		}
	}
}

// TestQuery1All512PlansProduceIdenticalXML is the paper's correctness
// premise: every spanning-forest plan of the Query 1 view tree — reduced
// or not — computes the same document.
func TestQuery1All512PlansProduceIdenticalXML(t *testing.T) {
	if testing.Short() {
		t.Skip("512-plan sweep in -short mode")
	}
	db := tpch.Generate(0.0004, 11)
	q, err := rxl.Parse(rxl.Query1Source)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	reference, _ := runPlan(t, db, Unified(tree, false))
	if !strings.Contains(reference, "<supplier>") || !strings.Contains(reference, "<okey>") {
		t.Fatalf("reference document suspicious: %.200s", reference)
	}
	var checked int
	for bits := uint64(0); bits < 1<<uint(len(tree.Edges)); bits++ {
		// Check every 7th plan plus the extremes to keep the test fast;
		// the full sweep runs in the experiment harness.
		if bits%7 != 0 && bits != 511 {
			continue
		}
		checked++
		got, _ := runPlan(t, db, FromBits(tree, bits, false))
		if got != reference {
			t.Fatalf("plan %09b differs from reference (lengths %d vs %d)", bits, len(got), len(reference))
		}
		gotR, _ := runPlan(t, db, FromBits(tree, bits, true))
		if gotR != reference {
			t.Fatalf("reduced plan %09b differs from reference", bits)
		}
	}
	if checked < 70 {
		t.Fatalf("only %d plans checked", checked)
	}
}

func TestQuery2PlansProduceIdenticalXML(t *testing.T) {
	db := tpch.Generate(0.0004, 11)
	q, err := rxl.Parse(rxl.Query2Source)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	reference, _ := runPlan(t, db, Unified(tree, false))
	for _, p := range []*Plan{
		FullyPartitioned(tree),
		Unified(tree, true),
		UnifiedOuterUnion(tree, false),
		UnifiedOuterUnion(tree, true),
		FromBits(tree, 0b101010101, false),
		FromBits(tree, 0b010101010, true),
	} {
		got, _ := runPlan(t, db, p)
		if got != reference {
			t.Fatalf("plan (%d streams, reduce=%v, style=%v) differs from reference",
				p.NumStreams(), p.Reduce, p.Style)
		}
	}
}

func TestNumStreamsMatchesComponents(t *testing.T) {
	tree := fragmentTree(t)
	for bits := uint64(0); bits < 4; bits++ {
		p := FromBits(tree, bits, false)
		streams, err := p.Streams()
		if err != nil {
			t.Fatal(err)
		}
		if len(streams) != p.NumStreams() {
			t.Errorf("bits=%b: %d streams, NumStreams()=%d", bits, len(streams), p.NumStreams())
		}
	}
}

func TestReductionShrinksUnifiedQueryRowCount(t *testing.T) {
	// The point of reduction: merged '1'-children stop being separate
	// rows, so the unified plan transfers fewer tuples.
	db := tpch.Generate(0.001, 3)
	q, err := rxl.Parse(rxl.Query1Source)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	xmlPlain, mPlain := runPlan(t, db, Unified(tree, false))
	xmlReduced, mReduced := runPlan(t, db, Unified(tree, true))
	if xmlPlain != xmlReduced {
		t.Fatal("reduction changed the document")
	}
	if mReduced.Rows >= mPlain.Rows {
		t.Errorf("reduction did not shrink row count: %d >= %d", mReduced.Rows, mPlain.Rows)
	}
}

func TestGeneratedSQLParsesAndCarriesOrderBy(t *testing.T) {
	tree := fragmentTree(t)
	for bits := uint64(0); bits < 4; bits++ {
		for _, style := range []sqlgen.Style{sqlgen.OuterJoin, sqlgen.OuterUnion} {
			p := FromBits(tree, bits, false)
			p.Style = style
			streams, err := p.Streams()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range streams {
				sql := s.SQL()
				if !strings.Contains(sql, "order by") {
					t.Errorf("stream lacks structural sort: %s", sql)
				}
			}
		}
	}
}

func TestWithClauseStyleProducesIdenticalXML(t *testing.T) {
	db := fig8DB(t)
	tree := fragmentTree(t)
	want, _ := runPlan(t, db, Unified(tree, false))
	for bits := uint64(0); bits < 4; bits++ {
		for _, reduce := range []bool{false, true} {
			p := FromBits(tree, bits, reduce)
			p.Style = sqlgen.WithClause
			got, _ := runPlan(t, db, p)
			if got != want {
				t.Errorf("WITH-style plan bits=%b reduce=%v differs:\n got: %s\nwant: %s",
					bits, reduce, got, want)
			}
		}
	}
}

func TestWithClauseSQLShape(t *testing.T) {
	tree := fragmentTree(t)
	p := Unified(tree, true)
	p.Style = sqlgen.WithClause
	streams, err := p.Streams()
	if err != nil {
		t.Fatal(err)
	}
	sql := streams[0].SQL()
	if !strings.Contains(sql, "with w_s1") {
		t.Errorf("WITH clause missing: %s", sql)
	}
	if !strings.Contains(sql, "order by") {
		t.Errorf("structural sort missing: %s", sql)
	}
}

func TestWithClausePermissibility(t *testing.T) {
	tree := fragmentTree(t)
	p := Unified(tree, true)
	p.Style = sqlgen.WithClause
	caps := tree.Schema.Supports
	caps.WithClause = false
	if ok, _ := p.Permissible(caps); ok {
		t.Error("WITH-style plan permissible on a target without WITH support")
	}
	caps.WithClause = true
	if ok, _ := p.Permissible(caps); !ok {
		t.Error("WITH-style plan rejected despite full capabilities")
	}
}

// TestViewRelationsCoverEveryPlan pins the fragment and plan caches'
// dependency set: for Q1, Q2 and the fragment, under every edge bitmask,
// reduced or not, and in every SQL style, the base tables the plan's SQL
// reads are exactly the relations the view tree's rules bind.
func TestViewRelationsCoverEveryPlan(t *testing.T) {
	for name, src := range map[string]string{"q1": rxl.Query1Source, "q2": rxl.Query2Source, "fragment": rxl.FragmentSource} {
		q, err := rxl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := viewtree.Build(q, tpch.Schema())
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Join(tree.Relations(), ",")
		for bits := uint64(0); bits < 1<<uint(len(tree.Edges)); bits++ {
			for _, reduce := range []bool{false, true} {
				for _, style := range []sqlgen.Style{sqlgen.OuterJoin, sqlgen.OuterUnion, sqlgen.WithClause} {
					p := FromBits(tree, bits, reduce)
					p.Style = style
					streams, err := p.Streams()
					if err != nil {
						t.Fatalf("%s plan %b: %v", name, bits, err)
					}
					seen := make(map[string]bool)
					for _, s := range streams {
						for _, rel := range sqlast.BaseTables(s.Query) {
							seen[rel] = true
						}
					}
					read := make([]string, 0, len(seen))
					for rel := range seen {
						read = append(read, rel)
					}
					sort.Strings(read)
					if got := strings.Join(read, ","); got != want {
						t.Fatalf("%s plan %b (reduce %v, style %v) reads %s, view relations %s",
							name, bits, reduce, style, got, want)
					}
				}
			}
		}
	}
}
