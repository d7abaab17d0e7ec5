package sqlast

import (
	"slices"
	"testing"
)

func TestColumnRefs(t *testing.T) {
	a, b, c, d := Col("s", "a"), Col("", "b"), Col("t", "c"), Col("t", "d")
	e := &And{Terms: []Expr{
		Eq(a, IntLit(1)),
		&Or{Terms: []Expr{Eq(b, c), &IsNull{E: d}}},
		NullLit(),
	}}
	want := []*ColumnRef{a, b, c, d}
	if got := ColumnRefs(e, nil); !slices.Equal(got, want) {
		t.Errorf("ColumnRefs = %v, want %v", got, want)
	}
	// Appends after what dst already holds.
	if got := ColumnRefs(Eq(c, a), []*ColumnRef{d}); !slices.Equal(got, []*ColumnRef{d, c, a}) {
		t.Errorf("ColumnRefs with a prefix = %v", got)
	}
	// A stack buffer that fits keeps the walk allocation-free.
	if n := testing.AllocsPerRun(100, func() {
		var buf [8]*ColumnRef
		if len(ColumnRefs(e, buf[:0])) != 4 {
			t.Fatal("wrong count")
		}
	}); n != 0 {
		t.Errorf("ColumnRefs into a stack buffer allocates %.0f times", n)
	}
}
