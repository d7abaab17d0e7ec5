package datalog

import (
	"strings"
	"testing"

	"silkroute/internal/rxl"
	"silkroute/internal/tpch"
	"silkroute/internal/value"
)

// Rules for the paper's Fig. 4 fragment over the TPC-H schema.

func supplierRule() *Rule {
	return &Rule{
		Head:  "S1",
		Args:  []string{"s.suppkey"},
		Atoms: []Atom{{Rel: "Supplier", Var: "s"}},
	}
}

func nationRule() *Rule {
	return &Rule{
		Head: "S1.1",
		Args: []string{"s.suppkey", "n.name"},
		Atoms: []Atom{
			{Rel: "Supplier", Var: "s"},
			{Rel: "Nation", Var: "n"},
		},
		Conds: []rxl.Condition{{
			Op: rxl.OpEq,
			L:  rxl.FieldRef("s", "nationkey"),
			R:  rxl.FieldRef("n", "nationkey"),
		}},
	}
}

func partRule() *Rule {
	return &Rule{
		Head: "S1.2",
		// Args follow §3.1's construction: keys of every in-scope tuple
		// variable plus the contained variable p.name.
		Args: []string{"s.suppkey", "ps.partkey", "ps.suppkey", "p.name"},
		Atoms: []Atom{
			{Rel: "Supplier", Var: "s"},
			{Rel: "PartSupp", Var: "ps"},
			{Rel: "Part", Var: "p"},
		},
		Conds: []rxl.Condition{
			{Op: rxl.OpEq, L: rxl.FieldRef("s", "suppkey"), R: rxl.FieldRef("ps", "suppkey")},
			{Op: rxl.OpEq, L: rxl.FieldRef("ps", "partkey"), R: rxl.FieldRef("p", "partkey")},
		},
	}
}

func TestRuleString(t *testing.T) {
	got := nationRule().String()
	want := "S1.1(s.suppkey,n.name) :- Supplier($s), Nation($n), $s.nationkey = $n.nationkey"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestFDSetIncludesKeysAndEqualities(t *testing.T) {
	s := tpch.Schema()
	r := nationRule()
	fds := FDSet(s, r.Atoms, r.Conds)
	// s.suppkey must determine n.name through: key FD of Supplier,
	// equality s.nationkey = n.nationkey, key FD of Nation.
	var hasSupplierKey, hasEquality bool
	for _, fd := range fds {
		if len(fd.From) == 1 && fd.From[0] == "s.suppkey" {
			hasSupplierKey = true
		}
		if len(fd.From) == 1 && fd.From[0] == "s.nationkey" {
			for _, to := range fd.To {
				if to == "n.nationkey" {
					hasEquality = true
				}
			}
		}
	}
	if !hasSupplierKey || !hasEquality {
		t.Errorf("FDSet missing expected dependencies: %v %v", hasSupplierKey, hasEquality)
	}
}

func TestFDSetConstantEquality(t *testing.T) {
	s := tpch.Schema()
	conds := []rxl.Condition{{
		Op: rxl.OpEq,
		L:  rxl.FieldRef("s", "nationkey"),
		R:  rxl.ConstOp(value.Int(3)),
	}}
	fds := FDSet(s, []Atom{{Rel: "Supplier", Var: "s"}}, conds)
	var constFD bool
	for _, fd := range fds {
		if len(fd.From) == 0 && len(fd.To) == 1 && fd.To[0] == "s.nationkey" {
			constFD = true
		}
	}
	if !constFD {
		t.Error("constant equality produced no empty-LHS FD")
	}
}

func TestC1NationIsFunctionallyDetermined(t *testing.T) {
	s := tpch.Schema()
	if !FunctionallyDetermines(s, supplierRule(), nationRule()) {
		t.Error("supplier → nation should satisfy C1 (at most one nation per supplier)")
	}
}

func TestC1PartIsNotFunctionallyDetermined(t *testing.T) {
	s := tpch.Schema()
	if FunctionallyDetermines(s, supplierRule(), partRule()) {
		t.Error("supplier → part must not satisfy C1 (a supplier has many parts)")
	}
}

func TestC2NationIsGuaranteed(t *testing.T) {
	s := tpch.Schema()
	if !GuaranteesChild(s, supplierRule(), nationRule()) {
		t.Error("supplier → nation should satisfy C2 (total FK Supplier.nationkey → Nation)")
	}
}

func TestC2PartIsNotGuaranteed(t *testing.T) {
	s := tpch.Schema()
	if GuaranteesChild(s, supplierRule(), partRule()) {
		t.Error("supplier → part must not satisfy C2 (suppliers may have no parts)")
	}
}

func TestC2FailsWithoutTotalFK(t *testing.T) {
	s := tpch.Schema()
	// Flip all FKs to non-total: no inclusion can be guaranteed.
	for i := range s.FKs {
		s.FKs[i].Total = false
	}
	if GuaranteesChild(s, supplierRule(), nationRule()) {
		t.Error("C2 held without a total foreign key")
	}
}

func TestC2FailsWithResidualFilter(t *testing.T) {
	s := tpch.Schema()
	child := nationRule()
	child.Conds = append(child.Conds, rxl.Condition{
		Op: rxl.OpGt,
		L:  rxl.FieldRef("n", "regionkey"),
		R:  rxl.ConstOp(value.Int(2)),
	})
	if GuaranteesChild(s, supplierRule(), child) {
		t.Error("C2 held despite a residual filter that can eliminate matches")
	}
}

func TestC2ChainedCoverage(t *testing.T) {
	s := tpch.Schema()
	// region child: supplier → nation → region, both total FKs.
	region := &Rule{
		Head: "S1.3",
		Args: []string{"s.suppkey", "r.name"},
		Atoms: []Atom{
			{Rel: "Supplier", Var: "s"},
			{Rel: "Nation", Var: "n"},
			{Rel: "Region", Var: "r"},
		},
		Conds: []rxl.Condition{
			{Op: rxl.OpEq, L: rxl.FieldRef("s", "nationkey"), R: rxl.FieldRef("n", "nationkey")},
			{Op: rxl.OpEq, L: rxl.FieldRef("n", "regionkey"), R: rxl.FieldRef("r", "regionkey")},
		},
	}
	if !GuaranteesChild(s, supplierRule(), region) {
		t.Error("chained total FKs should guarantee the region child")
	}
	if !FunctionallyDetermines(s, supplierRule(), region) {
		t.Error("region should also be functionally determined")
	}
}

func TestC2MultiColumnFK(t *testing.T) {
	s := tpch.Schema()
	// LineItem → PartSupp is a total two-column FK.
	line := &Rule{
		Head:  "L",
		Args:  []string{"l.orderkey", "l.lno"},
		Atoms: []Atom{{Rel: "LineItem", Var: "l"}},
	}
	ps := &Rule{
		Head: "L.1",
		Args: []string{"l.orderkey", "l.lno", "ps.availqty"},
		Atoms: []Atom{
			{Rel: "LineItem", Var: "l"},
			{Rel: "PartSupp", Var: "ps"},
		},
		Conds: []rxl.Condition{
			{Op: rxl.OpEq, L: rxl.FieldRef("l", "partkey"), R: rxl.FieldRef("ps", "partkey")},
			{Op: rxl.OpEq, L: rxl.FieldRef("l", "suppkey"), R: rxl.FieldRef("ps", "suppkey")},
		},
	}
	if !GuaranteesChild(s, line, ps) {
		t.Error("two-column total FK should guarantee the partsupp child")
	}
	// With only one of the two column conditions, no guarantee.
	ps.Conds = ps.Conds[:1]
	if GuaranteesChild(s, line, ps) {
		t.Error("partial multi-column FK join must not guarantee the child")
	}
}

func TestC2SameBodyIsGuaranteed(t *testing.T) {
	s := tpch.Schema()
	// A child with the identical body (e.g. <pname> under <part>) adds no
	// atoms and no conditions: trivially guaranteed and determined.
	parent := partRule()
	child := &Rule{
		Head:  "S1.2.1",
		Args:  append(append([]string{}, parent.Args...), "p.retail"),
		Atoms: parent.Atoms,
		Conds: parent.Conds,
	}
	if !GuaranteesChild(s, parent, child) {
		t.Error("identical body should be guaranteed")
	}
	if !FunctionallyDetermines(s, parent, child) {
		t.Error("identical body should be functionally determined")
	}
}

func TestRuleStringWithConst(t *testing.T) {
	r := &Rule{
		Head:  "F",
		Args:  []string{"t.a"},
		Atoms: []Atom{{Rel: "T", Var: "t"}},
		Conds: []rxl.Condition{{Op: rxl.OpGt, L: rxl.FieldRef("t", "a"), R: rxl.ConstOp(value.Int(5))}},
	}
	if got := r.String(); !strings.Contains(got, "$t.a > 5") {
		t.Errorf("String() = %q", got)
	}
}
