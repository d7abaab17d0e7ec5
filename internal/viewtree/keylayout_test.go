package viewtree_test

import (
	"testing"

	"silkroute/internal/rxl"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlgen"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
)

// TestStructuralKeyLayout pins the view tree as the owner of the
// structural key L1,V(1,*),L2,V(2,*),…: the L and variable positions fill
// 0…Width−1 exactly once, each level's L column opens that level, and
// every generated stream's ORDER BY climbs the key strictly.
func TestStructuralKeyLayout(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"Query1", rxl.Query1Source},
		{"Query2", rxl.Query2Source},
		{"fragment", rxl.FragmentSource},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := rxl.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := viewtree.Build(q, tpch.Schema())
			if err != nil {
				t.Fatal(err)
			}

			// slot[pos] is the level whose L (isL) or variable sits at pos.
			type slot struct {
				level int
				isL   bool
				taken bool
			}
			slots := make([]slot, tree.Width)
			take := func(pos, level int, isL bool) {
				if pos < 0 || pos >= tree.Width {
					t.Fatalf("position %d outside the key's width %d", pos, tree.Width)
				}
				if slots[pos].taken {
					t.Fatalf("position %d assigned twice", pos)
				}
				slots[pos] = slot{level: level, isL: isL, taken: true}
			}
			if len(tree.LPos) != tree.MaxDepth() {
				t.Fatalf("%d L positions for depth %d", len(tree.LPos), tree.MaxDepth())
			}
			for i, p := range tree.LPos {
				take(p, i+1, true)
			}
			for _, v := range tree.Vars {
				take(v.Pos, v.Level, false)
			}
			for pos, s := range slots {
				if !s.taken {
					t.Fatalf("position %d unassigned", pos)
				}
				if pos == 0 {
					continue
				}
				prev := slots[pos-1]
				// Levels never fall along the key, and a new level begins
				// with its own L column.
				if s.level < prev.level || s.level > prev.level && !s.isL || s.isL && s.level == prev.level {
					t.Errorf("position %d (level %d, L %v) follows level %d (L %v)", pos, s.level, s.isL, prev.level, prev.isL)
				}
			}

			for _, plan := range []struct {
				name string
				keep []bool
			}{{"unified", tree.AllEdges()}, {"partitioned", tree.NoEdges()}} {
				for _, reduce := range []bool{false, true} {
					comps, err := tree.Partition(plan.keep, reduce)
					if err != nil {
						t.Fatal(err)
					}
					for _, style := range []sqlgen.Style{sqlgen.OuterJoin, sqlgen.OuterUnion, sqlgen.WithClause} {
						streams, err := sqlgen.Generate(tree, comps, style)
						if err != nil {
							t.Fatal(err)
						}
						for i, s := range streams {
							checkOrderBy(t, tree, s)
							if t.Failed() {
								t.Fatalf("%s reduce=%v %v stream %d:\n%s", plan.name, reduce, style, i, s.SQL())
							}
						}
					}
				}
			}
		})
	}
}

// checkOrderBy checks that every column carries the position the tree
// gives its L level or variable (-1 for a filler) and that the stream's
// ORDER BY is strictly increasing in position.
func checkOrderBy(t *testing.T, tree *viewtree.Tree, s *sqlgen.Stream) {
	t.Helper()
	pos := make(map[string]int, len(s.Cols))
	for _, c := range s.Cols {
		want := -1
		switch {
		case c.IsL:
			want = tree.LPos[c.Level-1]
		case c.Ref != viewtree.VarRef{}:
			vi, ok := tree.VarIndex(c.Ref)
			if !ok {
				t.Errorf("column %s: %v not a tree variable", c.Name, c.Ref)
			}
			want = vi.Pos
		}
		if c.Pos != want {
			t.Errorf("column %s at position %d, want %d", c.Name, c.Pos, want)
		}
		pos[c.Name] = c.Pos
	}
	last := -1
	for _, o := range orderBy(s.Query) {
		name := o.Expr.(*sqlast.ColumnRef).Column
		p, ok := pos[name]
		if !ok || p < 0 {
			t.Errorf("ORDER BY %s is not a key column", name)
			continue
		}
		if p <= last {
			t.Errorf("ORDER BY %s at position %d after position %d", name, p, last)
		}
		last = p
	}
	if last < 0 {
		t.Error("no ORDER BY")
	}
}

func orderBy(q sqlast.Query) []sqlast.OrderItem {
	switch q := q.(type) {
	case *sqlast.Select:
		return q.OrderBy
	case *sqlast.Union:
		return q.OrderBy
	case *sqlast.With:
		return orderBy(q.Body)
	}
	return nil
}
