package sqlgen

import (
	"context"
	"strings"
	"testing"

	"silkroute/internal/engine"
	"silkroute/internal/sqlparse"
	"silkroute/internal/table"
	"silkroute/internal/tpch"
	"silkroute/internal/value"
)

// runSQL executes generated SQL against a small TPC-H instance and returns
// the materialized rows.
func runSQL(t *testing.T, db *engine.Database, sql string) []table.Row {
	t.Helper()
	res, err := db.ExecuteContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("execute %q: %v", sql, err)
	}
	var rows []table.Row
	for {
		row, ok := res.Next()
		if !ok {
			return rows
		}
		rows = append(rows, row.Clone()) // the row is valid until the next call
	}
}

func keyOf(row table.Row, sortKey []int) []value.Value {
	key := make([]value.Value, len(sortKey))
	for i, p := range sortKey {
		key[i] = row[p]
	}
	return key
}

func keysIdentical(a, b []value.Value) bool {
	for i := range a {
		if !value.Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestResumeSQLSuffixEquivalence is the correctness property of resume
// queries: for every boundary row of every stream, ResumeSQL(key) returns
// exactly the original result's suffix starting at the first row whose sort
// key equals the boundary key (the >= predicate re-delivers full-key ties;
// the consumer skips them by count). Iterating every boundary row also
// exercises NULL key components — outer-union rows carry NULLs in the other
// variants' key columns.
func TestResumeSQLSuffixEquivalence(t *testing.T) {
	db := tpch.Generate(0.0004, 11)
	tree := fragTree(t)
	cases := []struct {
		name   string
		keep   []bool
		style  Style
		reduce bool
	}{
		{"outer-union", tree.AllEdges(), OuterUnion, false},
		{"fully-partitioned", tree.NoEdges(), OuterJoin, false},
		{"outer-join-reduced", tree.AllEdges(), OuterJoin, true},
	}
	sawNullKey := false
	for _, tc := range cases {
		streams := gen1(t, tree, tc.keep, tc.reduce, tc.style)
		for si, s := range streams {
			if !s.Resumable() {
				t.Errorf("%s stream %d: not resumable", tc.name, si)
				continue
			}
			orig := runSQL(t, db, s.SQL())
			if len(orig) < 2 {
				continue
			}
			sortKey := s.SortKey()
			// Every 3rd boundary keeps the quadratic check affordable while
			// still crossing variant changes and NULL key components.
			for b := 0; b < len(orig); b += 3 {
				key := keyOf(orig[b], sortKey)
				for _, v := range key {
					if v.IsNull() {
						sawNullKey = true
					}
				}
				rsql, err := s.ResumeSQL(key)
				if err != nil {
					t.Fatalf("%s stream %d boundary %d: ResumeSQL: %v", tc.name, si, b, err)
				}
				if !strings.Contains(rsql, resumeAlias) {
					t.Fatalf("%s stream %d: resume SQL does not wrap the body: %s", tc.name, si, rsql)
				}
				if _, err := sqlparse.Parse(rsql); err != nil {
					t.Fatalf("%s stream %d boundary %d: resume SQL does not parse: %v\n%s", tc.name, si, b, err, rsql)
				}
				got := runSQL(t, db, rsql)
				// The suffix starts at the first row sharing the boundary key.
				start := b
				for start > 0 && keysIdentical(keyOf(orig[start-1], sortKey), key) {
					start--
				}
				want := orig[start:]
				if len(got) != len(want) {
					t.Fatalf("%s stream %d boundary %d: resume returned %d rows, want %d\n%s",
						tc.name, si, b, len(got), len(want), rsql)
				}
				for i := range want {
					for c := range want[i] {
						if !value.Identical(got[i][c], want[i][c]) {
							t.Fatalf("%s stream %d boundary %d: row %d col %d = %v, want %v",
								tc.name, si, b, i, c, got[i][c], want[i][c])
						}
					}
				}
			}
		}
	}
	if !sawNullKey {
		t.Error("no boundary exercised a NULL sort-key component; fixture too small to cover the IS NULL predicate arms")
	}
}

func TestResumeSQLNilKeyReturnsOriginal(t *testing.T) {
	tree := fragTree(t)
	for _, s := range gen1(t, tree, tree.NoEdges(), false, OuterJoin) {
		rsql, err := s.ResumeSQL(nil)
		if err != nil {
			t.Fatal(err)
		}
		if rsql != s.SQL() {
			t.Errorf("ResumeSQL(nil) = %q, want the original SQL", rsql)
		}
	}
}

func TestResumeSQLRejectsBadKeys(t *testing.T) {
	tree := fragTree(t)
	s := gen1(t, tree, tree.NoEdges(), false, OuterJoin)[0]
	if _, err := s.ResumeSQL([]value.Value{value.Int(1)}); err == nil && len(s.SortKey()) != 1 {
		t.Error("ResumeSQL accepted a key of the wrong arity")
	}
}
