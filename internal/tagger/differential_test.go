package tagger

import (
	"bytes"
	"context"
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

// reusingSource overwrites one row slice on every Next, as a decoding
// source may: a row is only valid until the following call.
type reusingSource struct {
	rows [][]value.Value
	buf  []value.Value
	pos  int
}

func (s *reusingSource) Next() ([]value.Value, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	s.buf = append(s.buf[:0], s.rows[s.pos]...)
	s.pos++
	return s.buf, true, nil
}

// sources returns fresh inputs over rows, each stream read through a
// SliceSource or, with reuse, a reusingSource.
func sources(metas []*sqlgen.Stream, rows [][][]value.Value, reuse bool) []Input {
	inputs := make([]Input, len(metas))
	for i, m := range metas {
		var src Source = &SliceSource{RowsData: rows[i]}
		if reuse {
			src = &reusingSource{rows: rows[i]}
		}
		inputs[i] = Input{Meta: m, Rows: src}
	}
	return inputs
}

// write runs one writer and returns its bytes and error.
func write(f func(w *bytes.Buffer) error) (string, error) {
	var b bytes.Buffer
	err := f(&b)
	return b.String(), err
}

// TestTaggerMatchesReference is the differential oracle over the plan
// space: for every plan of the 2^|E| family of Queries 1 and 2 (the edge
// masks plan.FromBits builds, here through Tree.KeepFromBits because plan
// imports this package), reduced or not, the compiled sorted writer must
// produce the reference tagger's bytes. -short samples one plan in eight.
func TestTaggerMatchesReference(t *testing.T) {
	db := tpch.Generate(0.00005, 3)
	for _, q := range []struct{ name, src string }{{"q1", rxl.Query1Source}, {"q2", rxl.Query2Source}} {
		parsed, err := rxl.Parse(q.src)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := viewtree.Build(parsed, db.Schema)
		if err != nil {
			t.Fatal(err)
		}
		plans := uint64(1) << len(tree.Edges)
		for _, reduce := range []bool{false, true} {
			for bits := uint64(0); bits < plans; bits++ {
				if testing.Short() && bits%8 != 0 && bits != plans-1 {
					continue
				}
				metas, rows := runPlan(t, db, tree, tree.KeepFromBits(bits), reduce)
				want, err := write(func(w *bytes.Buffer) error {
					return newRefTagger(tree).WriteXML(w, sources(metas, rows, false))
				})
				if err != nil {
					t.Fatalf("%s bits=%#x reduce=%v: reference: %v", q.name, bits, reduce, err)
				}
				got, err := write(func(w *bytes.Buffer) error { return New(tree).WriteXML(w, sources(metas, rows, false)) })
				if err != nil || got != want {
					t.Fatalf("%s bits=%#x reduce=%v: WriteXML differs from the reference (err %v)\n got: %.300s\nwant: %.300s",
						q.name, bits, reduce, err, got, want)
				}
			}
		}
	}
}

// runPlan generates one plan's streams and drains each into memory.
func runPlan(t testing.TB, db *engine.Database, tree *viewtree.Tree, keep []bool, reduce bool) ([]*sqlgen.Stream, [][][]value.Value) {
	t.Helper()
	comps, err := tree.Partition(keep, reduce)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := sqlgen.Generate(tree, comps, sqlgen.OuterJoin)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][][]value.Value, len(metas))
	for i, m := range metas {
		res, err := db.ExecuteQueryContext(context.Background(), m.Query)
		if err != nil {
			t.Fatalf("stream %d (%s): %v", i, m.SQL(), err)
		}
		for {
			row, ok := res.Next()
			if !ok {
				break
			}
			rows[i] = append(rows[i], row)
		}
	}
	return metas, rows
}

// scenarioQuery has one edge of each kind the table needs: sname '1',
// nation '?' (at most one nation, and only in region 1) and part '*'.
const scenarioQuery = `
from Supplier $s
construct
<supplier>
  <sname>$s.name</sname>
  { from Nation $n where $s.nationkey = $n.nationkey, $n.regionkey = 1
    construct <nation>$n.name</nation> }
  { from PartSupp $ps where $s.suppkey = $ps.suppkey
    construct <part>$ps.partkey</part> }
</supplier>
`

// row is one stream row by column name; an absent column is NULL. The
// unified plan's one stream has the columns v_s_suppkey L2 v_s_name
// v_n_nationkey v_n_name v_ps_partkey v_ps_suppkey; the fully partitioned
// plan's four streams (supplier, sname, nation, part) each have
// v_s_suppkey plus their node's variables.
type row map[string]value.Value

var (
	i64 = value.Int
	str = value.String
)

// taggerCase is one adversarial input: the streams of the unified or the
// fully partitioned plan of scenarioQuery, and the document or the error
// the sorted writer must produce. Every case also runs through the
// reference tagger, over fresh and over row-reusing sources.
type taggerCase struct {
	Name        string
	Partitioned bool
	Streams     [][]row
	ExpectXML   string // without the <document> wrapper
	ExpectErr   string

	// Inputs lists the plan's streams the tagger reads, by index, one
	// input each; nil reads every stream once.
	Inputs []int
}

var (
	minInt  = i64(math.MinInt64)
	maxInt  = i64(math.MaxInt64)
	f64     = value.Float
	negZero = f64(math.Copysign(0, -1))
	nan     = f64(math.NaN())
	inf     = f64(math.Inf(1))
	negInf  = f64(math.Inf(-1))
)

var taggerCases = []taggerCase{
	{
		Name: "single stream",
		Streams: [][]row{{
			{"v_s_suppkey": i64(1), "L2": i64(1), "v_s_name": str("Acme")},
			{"v_s_suppkey": i64(1), "L2": i64(2), "v_n_nationkey": i64(5), "v_n_name": str("PERU")},
			{"v_s_suppkey": i64(1), "L2": i64(3), "v_ps_partkey": i64(7), "v_ps_suppkey": i64(1)},
			{"v_s_suppkey": i64(1), "L2": i64(3), "v_ps_partkey": i64(9), "v_ps_suppkey": i64(1)},
			{"v_s_suppkey": i64(2), "L2": i64(1), "v_s_name": str("Bolt")},
		}},
		ExpectXML: "<supplier><sname>Acme</sname><nation>PERU</nation><part>7</part><part>9</part></supplier>" +
			"<supplier><sname>Bolt</sname></supplier>",
	},
	{
		Name:    "empty stream",
		Streams: [][]row{{}},
	},
	{
		Name:        "empty streams beside full ones",
		Partitioned: true,
		Streams: [][]row{
			{{"v_s_suppkey": i64(1)}, {"v_s_suppkey": i64(2)}},
			{{"v_s_suppkey": i64(1), "v_s_name": str("Acme")}},
			{},
			{},
		},
		ExpectXML: "<supplier><sname>Acme</sname></supplier><supplier></supplier>",
	},
	{
		Name: "?/* edges with zero children",
		Streams: [][]row{{
			{"v_s_suppkey": i64(1), "L2": i64(1), "v_s_name": str("Lone")},
			{"v_s_suppkey": i64(2)}, // outer join found no child at all
			{"v_s_suppkey": i64(3), "L2": i64(3), "v_ps_partkey": i64(4), "v_ps_suppkey": i64(3)},
		}},
		ExpectXML: "<supplier><sname>Lone</sname></supplier><supplier></supplier><supplier><part>4</part></supplier>",
	},
	{
		Name: "all-NULL keys",
		Streams: [][]row{{
			{},
			{},
			{"L2": i64(3)},
			{"L2": i64(3)},
			{"v_s_suppkey": i64(1)},
		}},
		ExpectXML: "<supplier><part></part></supplier><supplier></supplier>",
	},
	{
		Name:        "all-NULL keys across streams",
		Partitioned: true,
		Streams: [][]row{
			{{}, {"v_s_suppkey": i64(1)}},
			{{}, {"v_s_suppkey": i64(1)}},
			{{}},
			{{}, {}},
		},
		ExpectXML: "<supplier><sname></sname><nation></nation><part></part></supplier><supplier><sname></sname></supplier>",
	},
	{
		Name: "duplicate full-key rows",
		Streams: [][]row{{
			{"v_s_suppkey": i64(1), "L2": i64(1), "v_s_name": str("Acme")},
			{"v_s_suppkey": i64(1), "L2": i64(1), "v_s_name": str("Acme")},
			{"v_s_suppkey": i64(1), "L2": i64(3), "v_ps_partkey": i64(7), "v_ps_suppkey": i64(1)},
			{"v_s_suppkey": i64(1), "L2": i64(3), "v_ps_partkey": i64(7), "v_ps_suppkey": i64(1)},
			{"v_s_suppkey": i64(1), "L2": i64(3), "v_ps_partkey": i64(7), "v_ps_suppkey": i64(1)},
		}},
		ExpectXML: "<supplier><sname>Acme</sname><part>7</part></supplier>",
	},
	{
		Name: "L column NULL or not an int",
		Streams: [][]row{{
			{"v_s_suppkey": i64(1), "v_s_name": str("null L")},
			{"v_s_suppkey": i64(1), "L2": str("1"), "v_s_name": str("string L")},
			{"v_s_suppkey": i64(1), "L2": value.Float(1), "v_s_name": str("float L")},
			{"v_s_suppkey": i64(1), "L2": i64(4), "v_s_name": str("no such branch")},
		}},
		ExpectXML: "<supplier></supplier>",
	},
	{
		Name: "text needing every escape",
		Streams: [][]row{{
			{"v_s_suppkey": i64(1), "L2": i64(1), "v_s_name": str("<a&b>\"c'd\"\te\nf\rg\x01h\xffi")},
			{"v_s_suppkey": i64(1), "L2": i64(2), "v_n_nationkey": i64(2), "v_n_name": str("ünïcode \u2028 \U0001F600 \uFFFE")},
		}},
		ExpectXML: "<supplier><sname>&lt;a&amp;b&gt;&#34;c&#39;d&#34;&#x9;e&#xA;f&#xD;g\uFFFDh\uFFFDi</sname>" +
			"<nation>ünïcode \u2028 \U0001F600 \uFFFD</nation></supplier>",
	},
	{
		Name:        "out-of-order streams",
		Partitioned: true,
		Streams: [][]row{
			{{"v_s_suppkey": i64(2)}, {"v_s_suppkey": i64(1)}}, // descending
			{{"v_s_suppkey": i64(1), "v_s_name": str("Acme")}},
			{},
			{},
		},
		ExpectErr: "open ancestors",
	},
	{
		Name:        "row-reusing source",
		Partitioned: true,
		Streams: [][]row{
			{{"v_s_suppkey": i64(1)}, {"v_s_suppkey": i64(2)}},
			{{"v_s_suppkey": i64(1), "v_s_name": str("Acme")}, {"v_s_suppkey": i64(2), "v_s_name": str("Bolt")}},
			{{"v_s_suppkey": i64(2), "v_n_nationkey": i64(3), "v_n_name": str("CHILE")}},
			{
				{"v_s_suppkey": i64(1), "v_ps_partkey": i64(5), "v_ps_suppkey": i64(1)},
				{"v_s_suppkey": i64(1), "v_ps_partkey": i64(6), "v_ps_suppkey": i64(1)},
				{"v_s_suppkey": i64(2), "v_ps_partkey": i64(5), "v_ps_suppkey": i64(2)},
			},
		},
		ExpectXML: "<supplier><sname>Acme</sname><part>5</part><part>6</part></supplier>" +
			"<supplier><sname>Bolt</sname><nation>CHILE</nation><part>5</part></supplier>",
	},
	{
		Name:        "int key extremes",
		Partitioned: true,
		Streams: [][]row{
			{{"v_s_suppkey": minInt}, {"v_s_suppkey": i64(-1)}, {"v_s_suppkey": i64(0)}, {"v_s_suppkey": maxInt}},
			{
				{"v_s_suppkey": minInt, "v_s_name": str("min")},
				{"v_s_suppkey": i64(-1), "v_s_name": str("minus one")},
				{"v_s_suppkey": maxInt, "v_s_name": str("max")},
			},
			{{"v_s_suppkey": i64(0), "v_n_nationkey": maxInt, "v_n_name": str("ZERO")}},
			{
				{"v_s_suppkey": i64(-1), "v_ps_partkey": minInt, "v_ps_suppkey": i64(-1)},
				{"v_s_suppkey": i64(-1), "v_ps_partkey": i64(-1), "v_ps_suppkey": i64(-1)},
				{"v_s_suppkey": i64(-1), "v_ps_partkey": i64(0), "v_ps_suppkey": i64(-1)},
				{"v_s_suppkey": i64(-1), "v_ps_partkey": maxInt, "v_ps_suppkey": i64(-1)},
				{"v_s_suppkey": maxInt, "v_ps_partkey": minInt, "v_ps_suppkey": maxInt},
			},
		},
		ExpectXML: "<supplier><sname>min</sname></supplier>" +
			"<supplier><sname>minus one</sname><part>-9223372036854775808</part><part>-1</part><part>0</part><part>9223372036854775807</part></supplier>" +
			"<supplier><nation>ZERO</nation></supplier>" +
			"<supplier><sname>max</sname><part>-9223372036854775808</part></supplier>",
	},
	{
		// In Compare's order "a" < "a\x00" < "ab" < "a\xff": a 0x00 byte
		// must sort before every other byte and after the string's end.
		Name:        "sibling string keys",
		Partitioned: true,
		Streams: [][]row{
			{{"v_s_suppkey": str("a")}, {"v_s_suppkey": str("a\x00")}, {"v_s_suppkey": str("ab")}, {"v_s_suppkey": str("a\xff")}},
			{
				{"v_s_suppkey": str("a"), "v_s_name": str("1")},
				{"v_s_suppkey": str("a\x00"), "v_s_name": str("2")},
				{"v_s_suppkey": str("ab"), "v_s_name": str("3")},
				{"v_s_suppkey": str("a\xff"), "v_s_name": str("4")},
			},
			{},
			{
				{"v_s_suppkey": str("a\x00"), "v_ps_partkey": str("a"), "v_ps_suppkey": str("a\x00")},
				{"v_s_suppkey": str("a\x00"), "v_ps_partkey": str("a\x00"), "v_ps_suppkey": str("a\x00")},
				{"v_s_suppkey": str("a\x00"), "v_ps_partkey": str("ab"), "v_ps_suppkey": str("a\x00")},
				{"v_s_suppkey": str("a\x00"), "v_ps_partkey": str("a\xff"), "v_ps_suppkey": str("a\x00")},
			},
		},
		ExpectXML: "<supplier><sname>1</sname></supplier>" +
			"<supplier><sname>2</sname><part>a</part><part>a\uFFFD</part><part>ab</part><part>a\uFFFD</part></supplier>" +
			"<supplier><sname>3</sname></supplier><supplier><sname>4</sname></supplier>",
	},
	{
		Name:        "NULL key before empty-string key",
		Partitioned: true,
		Streams: [][]row{
			{{}, {"v_s_suppkey": str("")}},
			{{"v_s_name": str("null")}, {"v_s_suppkey": str(""), "v_s_name": str("empty")}},
			{{"v_s_suppkey": str(""), "v_n_nationkey": str(""), "v_n_name": str("E")}},
			{{"v_ps_partkey": str("")}, {"v_ps_partkey": str(""), "v_ps_suppkey": str("")}},
		},
		ExpectXML: "<supplier><sname>null</sname><part></part><part></part></supplier>" +
			"<supplier><sname>empty</sname><nation>E</nation></supplier>",
	},
	{
		// Ints and floats mix as value.Compare mixes them: 2 and 2.0 are
		// one supplier.
		Name:        "int and float keys mix",
		Partitioned: true,
		Streams: [][]row{
			{{"v_s_suppkey": value.Float(1.5)}, {"v_s_suppkey": i64(2)}, {"v_s_suppkey": value.Float(2.5)}},
			{{"v_s_suppkey": value.Float(1.5), "v_s_name": str("x")}, {"v_s_suppkey": value.Float(2), "v_s_name": str("y")}},
			{{"v_s_suppkey": value.Float(2.5), "v_n_nationkey": value.Float(-1), "v_n_name": str("F")}},
			{
				{"v_s_suppkey": i64(2), "v_ps_partkey": value.Float(0.5), "v_ps_suppkey": i64(2)},
				{"v_s_suppkey": value.Float(2), "v_ps_partkey": i64(1), "v_ps_suppkey": value.Float(2)},
			},
		},
		ExpectXML: "<supplier><sname>x</sname></supplier>" +
			"<supplier><sname>y</sname><part>0.5</part><part>1</part></supplier>" +
			"<supplier><nation>F</nation></supplier>",
	},
	{
		// The part stream read twice: equal heads are emitted in stream
		// order, so -0 (stream 3) comes before 0 (stream 4), which
		// compare equal, and the equal int keys both appear.
		Name:        "tie between streams",
		Partitioned: true,
		Inputs:      []int{0, 1, 2, 3, 3},
		Streams: [][]row{
			{{"v_s_suppkey": i64(1)}},
			{},
			{},
			{
				{"v_s_suppkey": i64(1), "v_ps_partkey": negZero, "v_ps_suppkey": i64(1)},
				{"v_s_suppkey": i64(1), "v_ps_partkey": i64(5), "v_ps_suppkey": i64(1)},
			},
			{
				{"v_s_suppkey": i64(1), "v_ps_partkey": value.Float(0), "v_ps_suppkey": i64(1)},
				{"v_s_suppkey": i64(1), "v_ps_partkey": i64(5), "v_ps_suppkey": i64(1)},
			},
		},
		ExpectXML: "<supplier><part>-0</part><part>0</part><part>5</part><part>5</part></supplier>",
	},
	{
		// Every edge of the numeric order: -Inf, -0 = 0, 0.5, 2^53 as a
		// float and an int beside the int 2^53+1, which is not equal to
		// it, +Inf, and NaN above them all.
		Name:        "float keys in the numeric order",
		Partitioned: true,
		Streams: [][]row{
			{
				{"v_s_suppkey": negInf}, {"v_s_suppkey": negZero}, {"v_s_suppkey": f64(0.5)},
				{"v_s_suppkey": f64(1 << 53)}, {"v_s_suppkey": i64(1<<53 + 1)}, {"v_s_suppkey": inf}, {"v_s_suppkey": nan},
			},
			{
				{"v_s_suppkey": negInf, "v_s_name": str("a")},
				{"v_s_suppkey": i64(0), "v_s_name": str("b")},
				{"v_s_suppkey": i64(1 << 53), "v_s_name": str("c")},
				{"v_s_suppkey": i64(1<<53 + 1), "v_s_name": str("d")},
				{"v_s_suppkey": nan, "v_s_name": str("e")},
			},
			{{"v_s_suppkey": inf, "v_n_nationkey": f64(0.5), "v_n_name": str("F")}},
			{
				{"v_s_suppkey": f64(0.5), "v_ps_partkey": negInf, "v_ps_suppkey": f64(0.5)},
				{"v_s_suppkey": f64(0.5), "v_ps_partkey": f64(-0.5), "v_ps_suppkey": f64(0.5)},
				{"v_s_suppkey": f64(0.5), "v_ps_partkey": negZero, "v_ps_suppkey": f64(0.5)},
				{"v_s_suppkey": f64(0.5), "v_ps_partkey": f64(0.5), "v_ps_suppkey": f64(0.5)},
				{"v_s_suppkey": f64(0.5), "v_ps_partkey": inf, "v_ps_suppkey": f64(0.5)},
				{"v_s_suppkey": f64(0.5), "v_ps_partkey": nan, "v_ps_suppkey": f64(0.5)},
			},
		},
		ExpectXML: "<supplier><sname>a</sname></supplier><supplier><sname>b</sname></supplier>" +
			"<supplier><part>-Inf</part><part>-0.5</part><part>-0</part><part>0.5</part><part>+Inf</part><part>NaN</part></supplier>" +
			"<supplier><sname>c</sname></supplier><supplier><sname>d</sname></supplier>" +
			"<supplier><nation>F</nation></supplier><supplier><sname>e</sname></supplier>",
	},
	{
		// The unified plan's one stream, sorted as its ORDER BY sorts:
		// the int 2^53+1 follows the float 2^53, and NaN follows +Inf.
		Name: "float keys in one stream",
		Streams: [][]row{{
			{"v_s_suppkey": f64(1 << 53), "L2": i64(1), "v_s_name": str("float")},
			{"v_s_suppkey": f64(1 << 53), "L2": i64(3), "v_ps_partkey": nan, "v_ps_suppkey": f64(1 << 53)},
			{"v_s_suppkey": i64(1<<53 + 1), "L2": i64(1), "v_s_name": str("int")},
			{"v_s_suppkey": i64(1<<53 + 1), "L2": i64(3), "v_ps_partkey": inf, "v_ps_suppkey": i64(1<<53 + 1)},
			{"v_s_suppkey": i64(1<<53 + 1), "L2": i64(3), "v_ps_partkey": nan, "v_ps_suppkey": i64(1<<53 + 1)},
			{"v_s_suppkey": nan, "L2": i64(1), "v_s_name": str("nan")},
		}},
		ExpectXML: "<supplier><sname>float</sname><part>NaN</part></supplier>" +
			"<supplier><sname>int</sname><part>+Inf</part><part>NaN</part></supplier>" +
			"<supplier><sname>nan</sname></supplier>",
	},
}

func TestTaggerScenarios(t *testing.T) {
	parsed, err := rxl.Parse(scenarioQuery)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(parsed, tpch.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range taggerCases {
		t.Run(tc.Name, func(t *testing.T) { runTaggerCase(t, tree, tc) })
	}
}

func runTaggerCase(t *testing.T, tree *viewtree.Tree, tc taggerCase) {
	t.Helper()
	keep := tree.AllEdges()
	if tc.Partitioned {
		keep = tree.NoEdges()
	}
	comps, err := tree.Partition(keep, false)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := sqlgen.Generate(tree, comps, sqlgen.OuterJoin)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Inputs != nil {
		picked := make([]*sqlgen.Stream, len(tc.Inputs))
		for i, si := range tc.Inputs {
			picked[i] = metas[si]
		}
		metas = picked
	}
	if len(tc.Streams) != len(metas) {
		t.Fatalf("case has %d streams, plan has %d inputs", len(tc.Streams), len(metas))
	}
	rows := make([][][]value.Value, len(metas))
	for i, m := range metas {
		for _, r := range tc.Streams[i] {
			vals := make([]value.Value, len(m.Cols))
			used := 0
			for ci, c := range m.Cols {
				if v, ok := r[c.Name]; ok {
					vals[ci] = v
					used++
				}
			}
			if used != len(r) {
				t.Fatalf("stream %d row %v names a column outside %v", i, r, m.Cols)
			}
			rows[i] = append(rows[i], vals)
		}
	}

	for _, reuse := range []bool{false, true} {
		want, wantErr := write(func(w *bytes.Buffer) error { return newRefTagger(tree).WriteXML(w, sources(metas, rows, reuse)) })
		got, err := write(func(w *bytes.Buffer) error { return New(tree).WriteXML(w, sources(metas, rows, reuse)) })
		if tc.ExpectErr != "" {
			if err == nil || wantErr == nil || !strings.Contains(err.Error(), tc.ExpectErr) || !strings.Contains(wantErr.Error(), tc.ExpectErr) {
				t.Errorf("reuse=%v: errors %v (compiled) and %v (reference), want both to contain %q", reuse, err, wantErr, tc.ExpectErr)
			}
		} else {
			if err != nil || wantErr != nil {
				t.Fatalf("reuse=%v: errors %v (compiled) and %v (reference)", reuse, err, wantErr)
			}
			if doc := "<document>" + tc.ExpectXML + "</document>"; got != doc || want != doc {
				t.Errorf("reuse=%v:\ncompiled:  %q\nreference: %q\nexpected:  %q", reuse, got, want, doc)
			}
		}
	}
}
