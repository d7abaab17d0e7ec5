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
	for i := range tb.Rows {
		for c := range tb.Rows[i] {
			if !value.Identical(back.Rows[i][c], tb.Rows[i][c]) {
				t.Errorf("row %d col %d: %v != %v", i, c, back.Rows[i][c], tb.Rows[i][c])
			}
		}
	}
	// The string "12" must stay a string because the column is VARCHAR.
	if back.Rows[2][1].Kind() != value.KindString {
		t.Errorf("numeric-looking string lost its type: %v", back.Rows[2][1].Kind())
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
	got := tb.Rows[0][2]
	if got.Kind() != value.KindFloat || got.AsFloat() != 904.0 {
		t.Errorf("integer literal in FLOAT column: got %v (%v)", got, got.Kind())
	}
}
