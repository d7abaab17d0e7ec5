package table

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"silkroute/internal/schema"
	"silkroute/internal/value"
)

func partRelation(t *testing.T) *schema.Relation {
	t.Helper()
	s := schema.New()
	return s.MustAddRelation("Part", []string{"partkey"},
		schema.Column{Name: "partkey", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "retail", Type: value.KindFloat})
}

func TestInsertArity(t *testing.T) {
	tb := New(partRelation(t))
	if err := tb.Insert(Row{value.Int(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := tb.Insert(Row{value.Int(1), value.String("brass"), value.Float(9.5)}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
}

// TestColumnStorage: a table stores one slice per column. Insert appends
// each value to its column and keeps nothing of the caller's row; a row of
// the wrong arity changes nothing; Row(i) reads row i back across the
// columns.
func TestColumnStorage(t *testing.T) {
	tb := New(partRelation(t))
	row := Row{value.Int(1), value.String("brass"), value.Float(9.5)}
	if err := tb.Insert(row); err != nil {
		t.Fatal(err)
	}
	row[1] = value.String("steel") // reused by the caller
	if err := tb.Insert(row); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(Row{value.Int(3), value.Null}); err == nil {
		t.Error("short row accepted")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	cols := tb.Columns()
	if len(cols) != 3 {
		t.Fatalf("%d columns, want 3", len(cols))
	}
	for c, col := range cols {
		if len(col) != 2 {
			t.Errorf("column %d holds %d values, want 2", c, len(col))
		}
	}
	if got := cols[1][0].AsString(); got != "brass" {
		t.Errorf("column 1 of row 0 = %q, want brass: Insert kept the caller's row", got)
	}
	if got := tb.Row(1); got[0].AsInt() != 1 || got[1].AsString() != "steel" || got[2].AsFloat() != 9.5 {
		t.Errorf("Row(1) = %v, want [1 steel 9.5]", got)
	}
	if st := tb.Stats(); st.RowCount != 2 || st.Columns[1].Distinct != 2 || st.Columns[0].Distinct != 1 {
		t.Errorf("stats = %+v, want 2 rows, 1 distinct partkey, 2 distinct names", st)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{value.Int(1), value.String("x")}
	c := r.Clone()
	c[0] = value.Int(2)
	if r[0].AsInt() != 1 {
		t.Error("Clone aliases the original row")
	}
}

func TestStats(t *testing.T) {
	tb := New(partRelation(t))
	tb.MustInsert(value.Int(1), value.String("brass"), value.Float(1.0))
	tb.MustInsert(value.Int(2), value.String("brass"), value.Null)
	tb.MustInsert(value.Int(3), value.String("steel"), value.Null)
	st := tb.Stats()
	if st.RowCount != 3 {
		t.Errorf("RowCount = %d", st.RowCount)
	}
	if st.Columns[0].Distinct != 3 {
		t.Errorf("partkey distinct = %d, want 3", st.Columns[0].Distinct)
	}
	if st.Columns[1].Distinct != 2 {
		t.Errorf("name distinct = %d, want 2", st.Columns[1].Distinct)
	}
	if st.Columns[2].NullCount != 2 {
		t.Errorf("retail nulls = %d, want 2", st.Columns[2].NullCount)
	}
	if st.Columns[2].Distinct != 1 {
		t.Errorf("retail distinct = %d, want 1", st.Columns[2].Distinct)
	}
	if w := tb.AvgRowWidth(); w <= 0 {
		t.Errorf("AvgRowWidth = %v", w)
	}
}

// TestStatsDistinctFollowsCompare: distinct values are counted under
// value.Compare's equality, so 2 and 2.0 are one value, every NaN is one
// value, and "a\x00" differs from "a".
func TestStatsDistinctFollowsCompare(t *testing.T) {
	tb := New(partRelation(t))
	for _, v := range []value.Value{value.Int(2), value.Float(2), value.Float(math.NaN()),
		value.Float(math.NaN()), value.String("a\x00"), value.String("a")} {
		tb.MustInsert(v, value.Null, value.Null)
	}
	if got := tb.Stats().Columns[0].Distinct; got != 4 {
		t.Errorf("Distinct = %d, want 4", got)
	}
}

func TestStatsCacheInvalidation(t *testing.T) {
	tb := New(partRelation(t))
	tb.MustInsert(value.Int(1), value.String("a"), value.Float(1))
	if tb.Stats().RowCount != 1 {
		t.Fatal("first stats wrong")
	}
	tb.MustInsert(value.Int(2), value.String("b"), value.Float(2))
	if tb.Stats().RowCount != 2 {
		t.Error("stats not invalidated by Insert")
	}
}

func TestColumnStatsLookup(t *testing.T) {
	tb := New(partRelation(t))
	tb.MustInsert(value.Int(1), value.String("a"), value.Float(1))
	if _, ok := tb.ColumnStats("name"); !ok {
		t.Error("ColumnStats(name) not found")
	}
	if _, ok := tb.ColumnStats("ghost"); ok {
		t.Error("ColumnStats(ghost) found")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := New(partRelation(t))
	tb.MustInsert(value.Int(1), value.String("plated, brass"), value.Float(904.0))
	tb.MustInsert(value.Int(2), value.Null, value.Null)
	tb.MustInsert(value.Int(3), value.String("12"), value.Float(-1.5))

	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back := New(tb.Rel)
	if err := back.ReadCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if back.Len() != tb.Len() {
		t.Fatalf("round trip lost rows: %d != %d", back.Len(), tb.Len())
	}
	for i := 0; i < tb.Len(); i++ {
		for c, v := range tb.Row(i) {
			if !value.Identical(back.Row(i)[c], v) {
				t.Errorf("row %d col %d: %v != %v", i, c, back.Row(i)[c], v)
			}
		}
	}
	// The string "12" must stay a string because the column is VARCHAR.
	if back.Row(2)[1].Kind() != value.KindString {
		t.Errorf("numeric-looking string lost its type: %v", back.Row(2)[1].Kind())
	}
}

func TestReadCSVErrors(t *testing.T) {
	rel := partRelation(t)
	cases := []struct {
		name string
		csv  string
	}{
		{"empty input", ""},
		{"wrong header arity", "partkey,name\n"},
		{"wrong header name", "partkey,name,price\n"},
		{"non-integer key", "partkey,name,retail\nabc,brass,1.5\n"},
		{"non-float retail", "partkey,name,retail\n1,brass,xyz\n"},
	}
	for _, c := range cases {
		tb := New(rel)
		if err := tb.ReadCSV(strings.NewReader(c.csv)); err == nil {
			t.Errorf("%s: ReadCSV succeeded, want error", c.name)
		}
	}
}

func TestReadCSVIntWidensToFloat(t *testing.T) {
	tb := New(partRelation(t))
	if err := tb.ReadCSV(strings.NewReader("partkey,name,retail\n1,brass,904\n")); err != nil {
		t.Fatal(err)
	}
	got := tb.Row(0)[2]
	if got.Kind() != value.KindFloat || got.AsFloat() != 904.0 {
		t.Errorf("integer literal in FLOAT column: got %v (%v)", got, got.Kind())
	}
}
