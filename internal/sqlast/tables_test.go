package sqlast

import (
	"reflect"
	"testing"
)

func sel(tables ...TableExpr) *Select { return &Select{From: tables} }

func TestBaseTablesWalksEveryShape(t *testing.T) {
	q := &Union{Branches: []*Select{
		sel(&BaseTable{Name: "Orders"}),
		sel(&Join{
			L:  &BaseTable{Name: "supplier", Alias: "s"},
			R:  &Derived{Query: sel(&BaseTable{Name: "LineItem"}), Alias: "q"},
			On: Eq(Col("s", "suppkey"), Col("q", "suppkey")),
		}),
		sel(&BaseTable{Name: "orders"}), // duplicate, different case
	}}
	got := BaseTables(q)
	want := []string{"lineitem", "orders", "supplier"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BaseTables = %v, want %v", got, want)
	}
}
