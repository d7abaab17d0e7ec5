package sqlexec

import (
	"fmt"
	"slices"
	"testing"

	"silkroute/internal/sqlast"
	"silkroute/internal/sqlparse"
)

// TestPlanFrom pins the FROM/WHERE plan the executor runs and the
// estimator prices, over three entries a(x, y), b(x, y) and c(y, z).
func TestPlanFrom(t *testing.T) {
	entry := map[string][]Col{
		"a": {{"a", "x"}, {"a", "y"}},
		"b": {{"b", "x"}, {"b", "y"}},
		"c": {{"c", "y"}, {"c", "z"}},
	}
	// step is one join: the entry joined and its key conjuncts.
	type step struct {
		entry int
		keys  []int
	}
	cases := []struct {
		name     string
		from     []string
		where    string
		filter   []int // per conjunct: the entry it filters, or -1
		steps    []step
		residual []int
	}{
		{"a one-entry conjunct is pushed to its entry", []string{"a", "b"}, "b.y > 1 and a.x = 2",
			[]int{1, 0}, []step{{1, nil}}, nil},
		{"a column two entries share is neither pushed nor a key", []string{"a", "b"}, "x = 1 and x = b.y",
			[]int{-1, -1}, []step{{1, nil}}, []int{0, 1}},
		{"1 = 1 is residual", []string{"a"}, "1 = 1",
			[]int{-1}, nil, []int{0}},
		{"both equalities of a composite key key one step", []string{"a", "b"}, "a.x = b.x and b.y = a.y",
			[]int{-1, -1}, []step{{1, []int{0, 1}}}, nil},
		{"the entry an equality connects joins first", []string{"a", "c", "b"}, "a.x = b.x and b.y = c.y",
			[]int{-1, -1}, []step{{2, []int{0}}, {1, []int{1}}}, nil},
		{"unconnected entries cross with the next entry", []string{"a", "b", "c"}, "b.y = c.y and a.x < b.x",
			[]int{-1, -1}, []step{{1, nil}, {2, []int{0}}}, []int{1}},
		{"an equality within one entry is a filter", []string{"a", "b"}, "a.x = a.y and a.y = b.y",
			[]int{0, -1}, []step{{1, []int{1}}}, nil},
		{"an unknown column is residual", []string{"a", "b"}, "a.x = b.w",
			[]int{-1}, []step{{1, nil}}, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := sqlparse.Parse("select 1 from t where " + tc.where)
			if err != nil {
				t.Fatal(err)
			}
			conjs := sqlast.Conjuncts(q.(*sqlast.Select).Where)
			var entries [][]Col
			for _, name := range tc.from {
				entries = append(entries, entry[name])
			}
			p := PlanFrom(entries, conjs)

			var steps []step
			for s := 1; s < len(p.Order); s++ {
				st := step{entry: p.Order[s]}
				for ci := range conjs {
					if p.Step[ci] == s {
						st.keys = append(st.keys, ci)
					}
				}
				steps = append(steps, st)
			}
			var residual []int
			for ci := range conjs {
				if p.Residual(ci) {
					residual = append(residual, ci)
				}
			}
			if p.Order[0] != 0 {
				t.Errorf("join starts at entry %d", p.Order[0])
			}
			if !slices.Equal(p.Filter, tc.filter) {
				t.Errorf("filters %v, want %v", p.Filter, tc.filter)
			}
			if got, want := fmt.Sprint(steps), fmt.Sprint(tc.steps); got != want {
				t.Errorf("join steps %s, want %s", got, want)
			}
			if !slices.Equal(residual, tc.residual) {
				t.Errorf("residual %v, want %v", residual, tc.residual)
			}
		})
	}
}

// TestPlanFromAllocatesOnce: planning allocates its one slab, however many
// conjuncts and references it reads.
func TestPlanFromAllocatesOnce(t *testing.T) {
	q, err := sqlparse.Parse("select 1 from t where a.x = b.x and b.y = c.y and a.y > 1 and x = 1 and c.z = c.y")
	if err != nil {
		t.Fatal(err)
	}
	conjs := sqlast.Conjuncts(q.(*sqlast.Select).Where)
	entries := [][]Col{{{"a", "x"}, {"a", "y"}}, {{"b", "x"}, {"b", "y"}}, {{"c", "y"}, {"c", "z"}}}
	if n := testing.AllocsPerRun(100, func() { PlanFrom(entries, conjs) }); n != 1 {
		t.Errorf("PlanFrom allocates %v times, want 1", n)
	}
}
