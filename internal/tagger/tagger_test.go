package tagger

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"silkroute/internal/engine"
	"silkroute/internal/rxl"
	"silkroute/internal/sqlgen"
	"silkroute/internal/tpch"
	"silkroute/internal/value"
	"silkroute/internal/viewtree"
)

// buildStreams partitions and generates SQL for a query, executes each
// stream against db, and returns tagger inputs backed by slices.
func buildStreams(t *testing.T, db *engine.Database, src string, keepAll bool, reduce bool) (*viewtree.Tree, []Input) {
	t.Helper()
	q, err := rxl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	keep := tree.NoEdges()
	if keepAll {
		keep = tree.AllEdges()
	}
	comps, err := tree.Partition(keep, reduce)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := sqlgen.Generate(tree, comps, sqlgen.OuterJoin)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Input, len(streams))
	for i, s := range streams {
		res, err := db.ExecuteQueryContext(context.Background(), s.Query)
		if err != nil {
			t.Fatalf("stream %d (%s): %v", i, s.SQL(), err)
		}
		var rows [][]value.Value
		for {
			row, ok := res.Next()
			if !ok {
				break
			}
			rows = append(rows, row.Clone()) // the row is valid until the next call
		}
		inputs[i] = Input{Meta: s, Rows: &SliceSource{RowsData: rows}}
	}
	return tree, inputs
}

func tinyDB(t *testing.T) *engine.Database {
	t.Helper()
	db := engine.NewDatabase(tpch.Schema())
	sup := db.MustTable("Supplier")
	sup.MustInsert(value.Int(1), value.String("A & B <Metals>"), value.String("x"), value.Int(1))
	sup.MustInsert(value.Int(2), value.String("NoParts Co"), value.String("y"), value.Int(2))
	nat := db.MustTable("Nation")
	nat.MustInsert(value.Int(1), value.String("USA"), value.Int(1))
	nat.MustInsert(value.Int(2), value.String("Spain"), value.Int(1))
	db.MustTable("PartSupp").MustInsert(value.Int(7), value.Int(1), value.Int(10))
	db.MustTable("Part").MustInsert(value.Int(7), value.String("bolt"), value.String("m"),
		value.String("b"), value.Int(1), value.Float(1.5))
	return db
}

const escapeQuery = `
from Supplier $s
construct
<supplier>
  <sname>$s.name</sname>
  { from Nation $n where $s.nationkey = $n.nationkey
    construct <nation>$n.name</nation> }
  { from PartSupp $ps, Part $p
    where $s.suppkey = $ps.suppkey, $ps.partkey = $p.partkey
    construct <part>$p.name</part> }
</supplier>
`

func TestWriteXMLEscapesText(t *testing.T) {
	db := tinyDB(t)
	tree, inputs := buildStreams(t, db, escapeQuery, true, false)
	var buf bytes.Buffer
	tg := New(tree)
	if err := tg.WriteXML(&buf, inputs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "A &amp; B &lt;Metals&gt;") {
		t.Errorf("text not escaped: %s", out)
	}
	if strings.Contains(out, "<Metals>") {
		t.Errorf("raw markup leaked: %s", out)
	}
}

func TestWriteXMLWrapper(t *testing.T) {
	db := tinyDB(t)
	tree, inputs := buildStreams(t, db, escapeQuery, true, false)
	var buf bytes.Buffer
	tg := New(tree)
	tg.Wrapper = "tpc"
	if err := tg.WriteXML(&buf, inputs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<tpc>") || !strings.HasSuffix(out, "</tpc>") {
		t.Errorf("wrapper missing: %.60s ... %s", out, out[len(out)-20:])
	}

	buf.Reset()
	_, inputs = buildStreams(t, db, escapeQuery, true, false)
	tg.Wrapper = ""
	if err := tg.WriteXML(&buf, inputs); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "<supplier>") {
		t.Errorf("unwrapped output = %.60s", buf.String())
	}
}

func TestFullyPartitionedStreamsMerge(t *testing.T) {
	db := tinyDB(t)
	treeU, inputsU := buildStreams(t, db, escapeQuery, true, false)
	var unified bytes.Buffer
	if err := New(treeU).WriteXML(&unified, inputsU); err != nil {
		t.Fatal(err)
	}
	treeP, inputsP := buildStreams(t, db, escapeQuery, false, false)
	if len(inputsP) != 4 {
		t.Fatalf("fully partitioned inputs = %d, want 4", len(inputsP))
	}
	var parted bytes.Buffer
	if err := New(treeP).WriteXML(&parted, inputsP); err != nil {
		t.Fatal(err)
	}
	if unified.String() != parted.String() {
		t.Errorf("merge mismatch:\nunified: %s\nparted:  %s", unified.String(), parted.String())
	}
}

func TestSupplierWithoutPartsEmitsNoPartElement(t *testing.T) {
	db := tinyDB(t)
	tree, inputs := buildStreams(t, db, escapeQuery, true, false)
	var buf bytes.Buffer
	if err := New(tree).WriteXML(&buf, inputs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "<part>") != 1 {
		t.Errorf("want exactly one part element: %s", out)
	}
	if !strings.Contains(out, "<sname>NoParts Co</sname><nation>Spain</nation></supplier>") {
		t.Errorf("supplier 2 shape wrong: %s", out)
	}
}

func TestSliceSource(t *testing.T) {
	s := &SliceSource{RowsData: [][]value.Value{{value.Int(1)}, {value.Int(2)}}}
	r1, ok, err := s.Next()
	if err != nil || !ok || r1[0].AsInt() != 1 {
		t.Fatalf("first: %v %v %v", r1, ok, err)
	}
	if _, ok, _ := s.Next(); !ok {
		t.Fatal("second row missing")
	}
	if _, ok, _ := s.Next(); ok {
		t.Fatal("source did not end")
	}
}

// compiledKey compiles p's key into segments and returns a copy of the
// byte key of the row's instance of p: p keeps its key in one buffer,
// which the next call overwrites.
func compiledKey(p *nodeProg, row []value.Value) []byte {
	p.segments(make([]keySeg, len(p.key)), nil)
	p.encode(0, row)
	return bytes.Clone(p.enc)
}

// TestIncrementalKeyMatchesFullEncoding: a program re-encodes only the
// segments from the first changed one on, and its key is then the key
// encoded from scratch, row after row. Values equal under value.Compare
// but not identical (2 and 2.0, -0 and 0) keep the bytes of the first.
func TestIncrementalKeyMatchesFullEncoding(t *testing.T) {
	key := []slot{{col: -1, lit: value.Int(1)}, {col: 0}, {col: -1, lit: value.Int(2)}, {col: 2}, {col: 1}, {col: -1}}
	p := &nodeProg{key: key}
	p.segments(make([]keySeg, len(key)), nil)
	rows := [][]value.Value{
		{value.Int(1), value.String("a"), value.Null},
		{value.Int(1), value.String("a"), value.Null}, // the same instance
		{value.Int(1), value.String("b"), value.Null},
		{value.Int(1), value.String("a long string that outgrows the key buffer of its program, and then some more bytes"), value.Int(2)},
		{value.Float(1), value.String("c"), value.Float(2)},
		{value.Int(2), value.String("c"), value.Float(2)},
		{value.Int(2), value.Null, value.Float(math.Copysign(0, -1))},
		{value.Int(2), value.Null, value.Int(0)}, // equal to -0: the same instance
	}
	wantFresh := []int{0, -1, 2, 1, 2, 0, 1, -1}
	for i, row := range rows {
		from := p.fresh(row)
		if from != wantFresh[i] {
			t.Errorf("row %d: fresh = %d, want %d", i, from, wantFresh[i])
		}
		if from < 0 {
			continue
		}
		p.encode(from, row)
		if want := compiledKey(&nodeProg{key: key}, row); !bytes.Equal(p.enc, want) {
			t.Errorf("row %d: incremental key % x, want % x", i, p.enc, want)
		}
	}
}

func TestCompareKeysNullFirstAndPrefix(t *testing.T) {
	// One program reading its whole key from the row, one whose last key
	// position is a constant.
	p := &nodeProg{key: []slot{{col: 0}, {col: 1}, {col: 2}}}
	q := &nodeProg{key: []slot{{col: 0}, {col: 1}, {col: -1, lit: value.Int(0)}}}
	a := []value.Value{value.Int(1), value.Null, value.Null}
	b := []value.Value{value.Int(1), value.Int(2), value.Null}
	pa, pb, qb := compiledKey(p, a), compiledKey(p, b), compiledKey(q, b)
	if bytes.Compare(pa, pb) >= 0 {
		t.Error("null prefix must sort before extension")
	}
	if bytes.Compare(pb, pa) <= 0 {
		t.Error("antisymmetry")
	}
	if !bytes.Equal(pa, compiledKey(p, a)) {
		t.Error("reflexivity")
	}
	if bytes.Compare(pb, qb) >= 0 || bytes.Compare(qb, pb) <= 0 {
		t.Error("a NULL key position must sort before a constant one")
	}
}

// errSource fails after one row to exercise error propagation.
type errSource struct{ n int }

func (e *errSource) Next() ([]value.Value, bool, error) {
	e.n++
	if e.n > 1 {
		return nil, false, fmt.Errorf("synthetic stream failure")
	}
	return nil, false, nil
}

func TestWriteXMLPropagatesSourceErrors(t *testing.T) {
	db := tinyDB(t)
	tree, inputs := buildStreams(t, db, escapeQuery, true, false)
	inputs[0].Rows = &errSource{n: 1} // fails on first Next
	var buf bytes.Buffer
	if err := New(tree).WriteXML(&buf, inputs); err == nil {
		t.Error("stream error swallowed")
	}
}

func TestConstantTextContent(t *testing.T) {
	db := tinyDB(t)
	tree, inputs := buildStreams(t, db,
		`from Supplier $s construct <supplier><kind>"metal & co"</kind></supplier>`, true, false)
	var buf bytes.Buffer
	if err := New(tree).WriteXML(&buf, inputs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<kind>metal &amp; co</kind>") {
		t.Errorf("constant text wrong: %s", buf.String())
	}
}

func TestLargeDocumentStreams(t *testing.T) {
	// A larger database exercises buffered flushing in the XML writer.
	db := tpch.Generate(0.002, 5)
	tree, inputs := buildStreams(t, db, rxl.FragmentSource, true, true)
	var buf bytes.Buffer
	if err := New(tree).WriteXML(&buf, inputs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantSuppliers := db.MustTable("Supplier").Len()
	if got := strings.Count(out, "<supplier>"); got != wantSuppliers {
		t.Errorf("suppliers in document = %d, want %d", got, wantSuppliers)
	}
	if strings.Count(out, "<part>") == 0 {
		t.Error("no parts in document")
	}
}

// TestOutputIsWellFormedXML decodes the emitted document with
// encoding/xml and checks that element nesting follows the view tree's
// template: every element's children are template children of its node.
func TestOutputIsWellFormedXML(t *testing.T) {
	db := tpch.Generate(0.002, 9)
	tree, inputs := buildStreams(t, db, rxl.Query1Source, true, true)
	var buf bytes.Buffer
	if err := New(tree).WriteXML(&buf, inputs); err != nil {
		t.Fatal(err)
	}

	// Template: tag → set of allowed child tags.
	allowed := map[string]map[string]bool{"document": {}}
	for _, n := range tree.Nodes {
		if _, ok := allowed[n.Tag]; !ok {
			allowed[n.Tag] = map[string]bool{}
		}
		if n.Parent == nil {
			allowed["document"][n.Tag] = true
		} else {
			allowed[n.Parent.Tag][n.Tag] = true
		}
	}

	dec := xml.NewDecoder(&buf)
	var stack []string
	elements := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("emitted document is not well-formed XML: %v", err)
		}
		switch tok := tok.(type) {
		case xml.StartElement:
			elements++
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				if !allowed[parent][tok.Name.Local] {
					t.Fatalf("element <%s> nested under <%s>, not allowed by the template", tok.Name.Local, parent)
				}
			} else if tok.Name.Local != "document" {
				t.Fatalf("root element is <%s>, want <document>", tok.Name.Local)
			}
			stack = append(stack, tok.Name.Local)
		case xml.EndElement:
			if len(stack) == 0 || stack[len(stack)-1] != tok.Name.Local {
				t.Fatalf("mismatched end element </%s>", tok.Name.Local)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) != 0 {
		t.Fatalf("unclosed elements: %v", stack)
	}
	if elements < 100 {
		t.Fatalf("document suspiciously small: %d elements", elements)
	}
}

// rewind restarts every SliceSource input, so one set of inputs can be
// written again without allocating new sources.
func rewind(inputs []Input) {
	for _, in := range inputs {
		in.Rows.(*SliceSource).pos = 0
	}
}

// TestWriteXMLAllocsIndependentOfRows is §3.3's constant-space claim as a
// property: writing Query 1 allocates the same number of times at two
// database sizes 4× apart, for the unified and the fully partitioned plan.
// What WriteXML allocates is set by the streams and the view tree alone;
// the slack of two absorbs a stray runtime allocation landing inside the
// measured runs. Each plan's count also has a ceiling, the count when it
// was set: a fall lowers it.
func TestWriteXMLAllocsIndependentOfRows(t *testing.T) {
	ceiling := map[bool]float64{true: 12, false: 12}
	for _, keepAll := range []bool{true, false} {
		var counts []float64
		for _, scale := range []float64{0.0005, 0.002} {
			tree, inputs := buildStreams(t, tpch.Generate(scale, 5), rxl.Query1Source, keepAll, true)
			tg := New(tree)
			counts = append(counts, testing.AllocsPerRun(5, func() {
				rewind(inputs)
				if err := tg.WriteXML(io.Discard, inputs); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("unified=%v: %v allocations per document, ceiling %v", keepAll, counts, ceiling[keepAll])
		if d := counts[1] - counts[0]; d > 2 || d < -2 {
			t.Errorf("unified=%v: allocations per document grew with the database: %v", keepAll, counts)
		}
		if counts[0] > ceiling[keepAll] {
			t.Errorf("unified=%v: %v allocations per document, ceiling %v", keepAll, counts[0], ceiling[keepAll])
		}
	}
}

// TestNewAllocatesOnlyTheTagger: the key layout is the view tree's, so
// building a tagger allocates the Tagger and nothing else.
func TestNewAllocatesOnlyTheTagger(t *testing.T) {
	tree, _ := buildStreams(t, tpch.Generate(0.0005, 5), rxl.Query1Source, false, true)
	var tg *Tagger
	if got := testing.AllocsPerRun(10, func() { tg = New(tree) }); got > 1 {
		t.Errorf("New allocates %v times, want at most 1", got)
	}
	_ = tg
}

// countingSource counts the rows its stream hands out.
type countingSource struct {
	Source
	n *int
}

func (c countingSource) Next() ([]value.Value, bool, error) {
	row, ok, err := c.Source.Next()
	if ok {
		*c.n++
	}
	return row, ok, err
}

// firstWrite records how many rows had been pulled when the first buffer
// reached it, and fails that write when err is set.
type firstWrite struct {
	pulled *int
	at     int // rows pulled at the first Write; -1 before it
	err    error
}

func (f *firstWrite) Write(p []byte) (int, error) {
	if f.at < 0 {
		f.at = *f.pulled
	}
	if f.err != nil {
		return 0, f.err
	}
	return len(p), nil
}

// TestWriteXMLStopsAtFailedWrite: a writer that fails (a client that hung
// up, a response over its size limit) ends the document at once, so the
// tagger pulls no more rows than it had when its first buffer went out.
func TestWriteXMLStopsAtFailedWrite(t *testing.T) {
	tree, inputs := buildStreams(t, tpch.Generate(0.002, 5), rxl.Query1Source, false, true)
	pulled := 0
	for i := range inputs {
		inputs[i].Rows = countingSource{inputs[i].Rows, &pulled}
	}
	ok := &firstWrite{pulled: &pulled, at: -1}
	if err := New(tree).WriteXML(ok, inputs); err != nil {
		t.Fatal(err)
	}
	total, perBuffer := pulled, ok.at
	if perBuffer <= 0 || perBuffer*4 > total {
		t.Fatalf("want a document of many buffers: %d rows, %d before the first write", total, perBuffer)
	}

	for i := range inputs {
		inputs[i].Rows.(countingSource).Source.(*SliceSource).pos = 0
	}
	pulled = 0
	boom := errors.New("client went away")
	failing := &firstWrite{pulled: &pulled, at: -1, err: boom}
	if err := New(tree).WriteXML(failing, inputs); !errors.Is(err, boom) {
		t.Fatalf("WriteXML = %v, want the writer's error", err)
	}
	if pulled > perBuffer {
		t.Errorf("pulled %d of %d rows after the first write failed at %d", pulled, total, perBuffer)
	}
}

// FuzzAppendEscaped holds the in-place escaper to xml.EscapeText, byte for
// byte, on any input: the five markup characters, \t \n \r, and U+FFFD for
// invalid UTF-8 and characters outside XML's range.
func FuzzAppendEscaped(f *testing.F) {
	for _, tc := range taggerCases {
		for _, stream := range tc.Streams {
			for _, r := range stream {
				for _, v := range r {
					if v.Kind() == value.KindString {
						f.Add([]byte(v.AsString()))
					}
				}
			}
		}
	}
	for _, s := range []string{"", "plain", "\x00\x08\x0b\x0c\x1f\x7f", "\xed\xa0\x80", "\xef\xbf\xbe\xef\xbf\xbf", "\xf4\x90\x80\x80", "\xe2\x82"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, s); err != nil {
			t.Fatal(err)
		}
		if got := appendEscaped([]byte("pre"), string(s)); string(got) != "pre"+want.String() {
			t.Fatalf("appendEscaped(%q) = %q, xml.EscapeText = %q", s, got[3:], want.Bytes())
		}
	})
}

// greedyMask keeps every edge of tree except those into <part> and
// <order>: for Query 1 the greedy plan's mask, whose supplier→part and
// part→order edges are cut.
func greedyMask(tree *viewtree.Tree) []bool {
	keep := tree.AllEdges()
	for i, e := range tree.Edges {
		keep[i] = e.Child.Tag != "part" && e.Child.Tag != "order"
	}
	return keep
}

// BenchmarkWriteXML measures the tagger alone: Query 1 at scale 0.001 under
// the fully partitioned plan (10 streams) and the greedy plan's mask (3
// streams), each executed once into SliceSources, rewound per document.
func BenchmarkWriteXML(b *testing.B) {
	db := tpch.Generate(0.001, 42)
	parsed, err := rxl.Parse(rxl.Query1Source)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := viewtree.Build(parsed, db.Schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []struct {
		name string
		keep []bool
	}{{"partitioned", tree.NoEdges()}, {"greedy", greedyMask(tree)}} {
		b.Run(p.name, func(b *testing.B) {
			metas, rows := runPlan(b, db, tree, p.keep, true)
			inputs := sources(metas, rows, false)
			tg := New(tree)
			var out countWriter
			if err := tg.WriteXML(&out, inputs); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(out))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rewind(inputs)
				if err := tg.WriteXML(io.Discard, inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
