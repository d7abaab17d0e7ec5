package silkroute

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"silkroute/internal/obs"
	"silkroute/internal/rxl"
	"silkroute/internal/value"
	"silkroute/internal/wire"
)

func librarySchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	if err := s.AddRelation("Author", []string{"authorid"},
		"authorid", Int, "name", String, "royalty", Float); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelation("Book", []string{"bookid"},
		"bookid", Int, "authorid", Int, "title", String); err != nil {
		t.Fatal(err)
	}
	if err := s.AddForeignKey("Book", []string{"authorid"}, "Author", []string{"authorid"}, true); err != nil {
		t.Fatal(err)
	}
	return s
}

func libraryDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(librarySchema(t))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("Author", 1, "Ada", 0.15))
	must(db.Insert("Author", 2, "Blaise", nil))
	must(db.Insert("Book", 10, 1, "Engines"))
	must(db.Insert("Book", 11, 1, "Notes"))
	return db
}

const libraryView = `
from Author $a
construct
<author>
  <name>$a.name</name>
  { from Book $b where $b.authorid = $a.authorid
    construct <book>$b.title</book> }
</author>`

func TestMaterializeAllStrategiesAgree(t *testing.T) {
	db := libraryDB(t)
	v, err := ParseView(db, libraryView)
	if err != nil {
		t.Fatal(err)
	}
	want := "<document>" +
		"<author><name>Ada</name><book>Engines</book><book>Notes</book></author>" +
		"<author><name>Blaise</name></author>" +
		"</document>"
	for _, s := range []Strategy{Unified, OuterUnion, FullyPartitioned, Greedy} {
		var buf bytes.Buffer
		rep, err := v.Materialize(ctx, &buf, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if buf.String() != want {
			t.Errorf("%s:\n got: %s\nwant: %s", s, buf.String(), want)
		}
		if rep.Streams < 1 || len(rep.PerStream) != rep.Streams {
			t.Errorf("%s report inconsistent: %+v", s, rep)
		}
	}
}

func TestMaterializeParallelismKnob(t *testing.T) {
	db := libraryDB(t)
	v, err := ParseView(db, libraryView)
	if err != nil {
		t.Fatal(err)
	}
	var serialBuf bytes.Buffer
	if _, err := v.Materialize(ctx, &serialBuf, FullyPartitioned); err != nil {
		t.Fatal(err)
	}
	v, err = ParseView(db, libraryView, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	var parBuf bytes.Buffer
	rep, err := v.Materialize(ctx, &parBuf, FullyPartitioned)
	if err != nil {
		t.Fatal(err)
	}
	if parBuf.String() != serialBuf.String() {
		t.Errorf("parallel materialization differs:\n got: %s\nwant: %s", parBuf.String(), serialBuf.String())
	}
	if rep.QueryTime <= 0 {
		t.Errorf("QueryTime = %v, want > 0", rep.QueryTime)
	}
	// Greedy must accept the knob too (it bounds estimate concurrency).
	var greedyBuf bytes.Buffer
	if _, err := v.Materialize(ctx, &greedyBuf, Greedy); err != nil {
		t.Fatal(err)
	}
	if greedyBuf.String() != serialBuf.String() {
		t.Error("parallel greedy materialization differs from serial document")
	}
}

func TestStrategyNames(t *testing.T) {
	names := map[Strategy]string{
		Unified: "unified", OuterUnion: "outer-union",
		FullyPartitioned: "fully-partitioned", Greedy: "greedy",
		Strategy(42): "Strategy(42)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestViewIntrospection(t *testing.T) {
	db := libraryDB(t)
	v, err := ParseView(db, libraryView)
	if err != nil {
		t.Fatal(err)
	}
	if v.NodeCount() != 3 || v.EdgeCount() != 2 {
		t.Errorf("nodes=%d edges=%d", v.NodeCount(), v.EdgeCount())
	}
	labels := v.EdgeLabels()
	if len(labels) != 2 {
		t.Fatalf("labels = %v", labels)
	}
	if !strings.Contains(labels[0], "author→name:1") {
		t.Errorf("label 0 = %q", labels[0])
	}
	if !strings.Contains(labels[1], "author→book:*") {
		t.Errorf("label 1 = %q", labels[1])
	}
}

func TestMaterializePlanBitmask(t *testing.T) {
	db := libraryDB(t)
	v, err := ParseView(db, libraryView)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := v.Materialize(ctx, &want, Unified); err != nil {
		t.Fatal(err)
	}
	for bits := uint64(0); bits < 4; bits++ {
		var buf bytes.Buffer
		rep, err := v.MaterializePlan(ctx, &buf, bits)
		if err != nil {
			t.Fatalf("bits=%b: %v", bits, err)
		}
		if buf.String() != want.String() {
			t.Errorf("bits=%b produced different document", bits)
		}
		wantStreams := 3 - popcount(bits)
		if rep.Streams != wantStreams {
			t.Errorf("bits=%b: streams=%d, want %d", bits, rep.Streams, wantStreams)
		}
	}
}

func popcount(b uint64) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestWrapperControl(t *testing.T) {
	db := libraryDB(t)
	v, err := ParseView(db, libraryView, WithWrapper("library"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := v.Materialize(ctx, &buf, Unified); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "<library>") {
		t.Errorf("custom wrapper missing: %.40s", buf.String())
	}
	v, err = ParseView(db, libraryView, WithWrapper(""))
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := v.Materialize(ctx, &buf, Unified); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "<author>") {
		t.Errorf("bare output missing: %.40s", buf.String())
	}
}

func TestGreedyReportFields(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	v, err := ParseView(db, rxl.Query1Source)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Materialize(ctx, io.Discard, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.GreedyMandatory) == 0 {
		t.Error("greedy reported no mandatory edges")
	}
	if rep.EstimateRequests <= 0 || rep.EstimateRequests >= 81 {
		t.Errorf("estimate requests = %d", rep.EstimateRequests)
	}
	// QueryTime is the wall clock until every stream is open, which
	// TotalTime contains.
	if rep.TotalTime < rep.QueryTime {
		t.Error("total time below query time")
	}
}

func TestInsertTypeValidation(t *testing.T) {
	db := libraryDB(t)
	if err := db.Insert("Author", 3, "X", struct{}{}); err == nil {
		t.Error("unsupported value type accepted")
	}
	if err := db.Insert("Ghost", 1); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := db.Insert("Author", 1); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestSchemaValidation(t *testing.T) {
	s := NewSchema()
	if err := s.AddRelation("T", nil, "lonely"); err == nil {
		t.Error("odd name/type list accepted")
	}
	if err := s.AddRelation("T", nil, "c", "complex128"); err == nil {
		t.Error("unknown column type accepted")
	}
	if err := s.AddForeignKey("A", []string{"x"}, "B", []string{"y"}, true); err == nil {
		t.Error("foreign key over unknown relations accepted")
	}
}

func TestCSVDumpAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := libraryDB(t)
	if err := db.DumpCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "Author.csv")); err != nil {
		t.Fatalf("dump missing file: %v", err)
	}
	back := NewDB(librarySchema(t))
	if err := back.LoadCSVDir(dir); err != nil {
		t.Fatal(err)
	}
	n, err := back.RowCount("Book")
	if err != nil || n != 2 {
		t.Errorf("RowCount(Book) = %d, %v", n, err)
	}
	// NULL royalty must survive.
	v, err := ParseView(back, `from Author $a construct <a><r>$a.royalty</r></a>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := v.Materialize(ctx, &buf, Unified); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<r></r>") {
		t.Errorf("NULL royalty lost: %s", buf.String())
	}
}

func TestServeWireClients(t *testing.T) {
	db := libraryDB(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go db.Serve(l)
	client := wire.NewClient(func(context.Context) (net.Conn, error) {
		return net.Dial("tcp", l.Addr().String())
	})
	rows, err := client.QueryResumable(ctx, "select a.name from Author a order by a.name", nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for {
		row, err := rows.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, row[0].AsString())
	}
	if len(names) != 2 || names[0] != "Ada" {
		t.Errorf("names = %v", names)
	}
}

func TestOpenTPCHZeroScaleIsEmptySchema(t *testing.T) {
	db := OpenTPCH(0, 1)
	// Scale 0 still creates minimal rows per SizesFor's floor of 1; the
	// point is the schema exists for CSV loading.
	if _, err := db.RowCount("Supplier"); err != nil {
		t.Fatal(err)
	}
}

func TestToRowConversions(t *testing.T) {
	row, err := toRow([]any{nil, 1, int64(2), 3.5, "x", true})
	if err != nil {
		t.Fatal(err)
	}
	if !row[0].IsNull() || row[1].AsInt() != 1 || row[2].AsInt() != 2 ||
		row[3].AsFloat() != 3.5 || row[4].AsString() != "x" || row[5] != value.Bool(true) {
		t.Errorf("toRow = %v", row)
	}
}

func TestCapabilitiesRestrictPlans(t *testing.T) {
	s := librarySchema(t)
	s.SetCapabilities(false, false) // neither outer join nor union
	db := NewDB(s)
	if err := db.Insert("Author", 1, "Ada", 0.1); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("Book", 10, 1, "Engines"); err != nil {
		t.Fatal(err)
	}
	v, err := ParseView(db, libraryView)
	if err != nil {
		t.Fatal(err)
	}
	// The unified plan keeps the '*' book edge: it needs a left outer
	// join the target lacks.
	if _, err := v.Materialize(ctx, io.Discard, Unified); err == nil {
		t.Error("unified plan accepted on an outer-join-free target")
	}
	// Fully partitioned always works.
	var fp bytes.Buffer
	if _, err := v.Materialize(ctx, &fp, FullyPartitioned); err != nil {
		t.Fatalf("fully partitioned rejected: %v", err)
	}
	// Greedy falls back to a permissible plan and still produces the
	// same document.
	var g bytes.Buffer
	rep, err := v.Materialize(ctx, &g, Greedy)
	if err != nil {
		t.Fatalf("greedy on weak target: %v", err)
	}
	if g.String() != fp.String() {
		t.Error("greedy fallback document differs")
	}
	if rep.Streams < 2 {
		t.Errorf("greedy on a join-free target must split the '*' edge; got %d streams", rep.Streams)
	}
}

// TestGreedyFallbackSearchesOnce: when the best greedy plan needs SQL the
// target lacks, the fallback picks from the search already run, so one
// Materialize runs one search, and every estimate the engine served is one
// the report counts.
func TestGreedyFallbackSearchesOnce(t *testing.T) {
	s := librarySchema(t)
	s.SetCapabilities(false, false)
	db := NewDB(s)
	for i := 1; i <= 5; i++ {
		if err := db.Insert("Author", i, fmt.Sprintf("author %d", i), 0.1); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("Book", 10+i, 1+i%3, fmt.Sprintf("book %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := ParseView(db, libraryView)
	if err != nil {
		t.Fatal(err)
	}
	old := obs.M()
	m := obs.NewMetrics()
	obs.SetGlobal(m)
	t.Cleanup(func() { obs.SetGlobal(old) })
	rep, err := v.Materialize(ctx, io.Discard, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Streams < 2 {
		t.Fatalf("%d streams: the search's best plan was permissible, so no fallback ran", rep.Streams)
	}
	if n := m.Planner.Searches.Value(); n != 1 {
		t.Errorf("%d greedy searches, want 1", n)
	}
	if n := m.Exec.EstimatesServed.Value(); n != rep.EstimateRequests {
		t.Errorf("engine served %d estimates, report counts %d", n, rep.EstimateRequests)
	}
}

func TestSetSortBudgetKeepsResultsIdentical(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	v, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	var free bytes.Buffer
	if _, err := v.Materialize(ctx, &free, Unified); err != nil {
		t.Fatal(err)
	}
	db.SetSortBudget(10) // everything spills
	var spilled bytes.Buffer
	if _, err := v.Materialize(ctx, &spilled, Unified); err != nil {
		t.Fatal(err)
	}
	if free.String() != spilled.String() {
		t.Error("sort budget changed the document")
	}
}

// ctx is the do-not-care context for tests exercising planning and
// materialization rather than cancellation; ctx_test.go covers the latter.
var ctx = context.Background()
