// Package datalog represents the non-recursive datalog rules that annotate
// view-tree nodes (§3.1 of the paper) and implements the constraint
// reasoning behind edge labeling (§3.5): C1, "the child is functionally
// determined by the parent" (at most one child per parent instance), and
// C2, "an inclusion dependency guarantees the child exists" (at least one
// child per parent instance).
//
// The paper notes that implication for mixed functional and inclusion
// dependencies is undecidable, so SilkRoute checks FD implication alone —
// decidable in linear time — and derives inclusion guarantees directly
// from declared (total) foreign keys. This package follows that design.
package datalog

import (
	"fmt"
	"strings"

	"silkroute/internal/rxl"
	"silkroute/internal/schema"
	"silkroute/internal/sqlast"
)

// Atom binds a tuple variable to a relation: PartSupp($ps).
type Atom struct {
	Rel string
	Var string
}

// Rule is one datalog rule: Head(Args...) :- Atoms, Conds.
// Args are qualified column variables in "var.field" form.
type Rule struct {
	Head  string
	Args  []string
	Atoms []Atom
	Conds []rxl.Condition
}

// String renders the rule in the paper's datalog syntax, for debugging and
// golden tests.
func (r *Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Head)
	b.WriteString("(")
	b.WriteString(strings.Join(r.Args, ","))
	b.WriteString(") :- ")
	var parts []string
	for _, a := range r.Atoms {
		parts = append(parts, fmt.Sprintf("%s($%s)", a.Rel, a.Var))
	}
	for _, c := range r.Conds {
		parts = append(parts, condString(c))
	}
	b.WriteString(strings.Join(parts, ", "))
	return b.String()
}

func condString(c rxl.Condition) string {
	return operandString(c.L) + " " + c.Op.String() + " " + operandString(c.R)
}

func operandString(o rxl.Operand) string {
	if o.IsConst {
		return o.Const.String()
	}
	return "$" + o.Var + "." + o.Field
}

// relOf returns the relation bound to tuple variable v, or "".
func (r *Rule) relOf(v string) string {
	for _, a := range r.Atoms {
		if a.Var == v {
			return a.Rel
		}
	}
	return ""
}

// qvar qualifies a field reference as an FD attribute.
func qvar(v, f string) string { return strings.ToLower(v + "." + f) }

// FDSet derives the functional dependencies implied by a rule body under
// the schema: relation keys (qualified per tuple variable), declared
// per-relation FDs, equality conditions (both directions), and constant
// equalities (which pin a column unconditionally).
func FDSet(s *schema.Schema, atoms []Atom, conds []rxl.Condition) []schema.QualifiedFD {
	var fds []schema.QualifiedFD
	for _, a := range atoms {
		rel, ok := s.Relation(a.Rel)
		if !ok {
			continue
		}
		if len(rel.Key) > 0 {
			fd := schema.QualifiedFD{}
			for _, k := range rel.Key {
				fd.From = append(fd.From, qvar(a.Var, k))
			}
			for _, c := range rel.Columns {
				fd.To = append(fd.To, qvar(a.Var, c.Name))
			}
			fds = append(fds, fd)
		}
		for _, dfd := range s.FDs {
			if !strings.EqualFold(dfd.Relation, a.Rel) {
				continue
			}
			fd := schema.QualifiedFD{}
			for _, f := range dfd.From {
				fd.From = append(fd.From, qvar(a.Var, f))
			}
			for _, f := range dfd.To {
				fd.To = append(fd.To, qvar(a.Var, f))
			}
			fds = append(fds, fd)
		}
	}
	for _, c := range conds {
		if c.Op != sqlast.OpEq {
			continue
		}
		switch {
		case !c.L.IsConst && !c.R.IsConst:
			l := qvar(c.L.Var, c.L.Field)
			r := qvar(c.R.Var, c.R.Field)
			fds = append(fds,
				schema.QualifiedFD{From: []string{l}, To: []string{r}},
				schema.QualifiedFD{From: []string{r}, To: []string{l}})
		case !c.L.IsConst && c.R.IsConst:
			fds = append(fds, schema.QualifiedFD{To: []string{qvar(c.L.Var, c.L.Field)}})
		case c.L.IsConst && !c.R.IsConst:
			fds = append(fds, schema.QualifiedFD{To: []string{qvar(c.R.Var, c.R.Field)}})
		}
	}
	return fds
}

// FunctionallyDetermines decides C1: under the child rule's body, do the
// parent's arguments functionally determine all of the child's arguments?
// If so, each parent node instance has at most one child instance.
func FunctionallyDetermines(s *schema.Schema, parent, child *Rule) bool {
	fds := FDSet(s, child.Atoms, child.Conds)
	from := make([]string, len(parent.Args))
	for i, a := range parent.Args {
		from[i] = strings.ToLower(a)
	}
	to := make([]string, len(child.Args))
	for i, a := range child.Args {
		to[i] = strings.ToLower(a)
	}
	return schema.Implies(fds, from, to)
}

// GuaranteesChild decides C2: does every parent binding extend to at least
// one child binding? The check is conservative and purely constraint-
// driven: every atom the child adds beyond the parent must be reachable
// from already-guaranteed tuple variables through a *total* foreign key
// whose column pairs appear as equality conditions, and the child may add
// no other conditions (any residual filter could eliminate matches).
func GuaranteesChild(s *schema.Schema, parent, child *Rule) bool {
	covered := make(map[string]bool)
	for _, a := range parent.Atoms {
		covered[a.Var] = true
	}
	var added []Atom
	for _, a := range child.Atoms {
		if !covered[a.Var] {
			added = append(added, a)
		}
	}
	// Conditions the child introduces beyond the parent's.
	parentConds := make(map[string]bool, len(parent.Conds))
	for _, c := range parent.Conds {
		parentConds[condString(c)] = true
	}
	var addedConds []rxl.Condition
	for _, c := range child.Conds {
		if !parentConds[condString(c)] {
			addedConds = append(addedConds, c)
		}
	}
	condUsed := make([]bool, len(addedConds))

	for progress := true; progress && len(added) > 0; {
		progress = false
		for ai := 0; ai < len(added); ai++ {
			a := added[ai]
			usedConds, ok := coveringFK(s, child, a, covered, addedConds, condUsed)
			if !ok {
				continue
			}
			covered[a.Var] = true
			for _, ci := range usedConds {
				condUsed[ci] = true
			}
			added = append(added[:ai], added[ai+1:]...)
			progress = true
			break
		}
	}
	if len(added) > 0 {
		return false
	}
	for _, u := range condUsed {
		if !u {
			return false // a residual filter could eliminate matches
		}
	}
	return true
}

// coveringFK looks for a total foreign key from some covered tuple
// variable to atom a whose column pairs all appear among the unused added
// equality conditions. It returns the indices of the conditions consumed.
func coveringFK(s *schema.Schema, child *Rule, a Atom, covered map[string]bool, conds []rxl.Condition, used []bool) ([]int, bool) {
	for _, fk := range s.FKs {
		if !fk.Total || !strings.EqualFold(fk.ToRelation, a.Rel) {
			continue
		}
		// Try each covered variable bound to the FK's source relation.
		for v := range covered {
			if !strings.EqualFold(child.relOf(v), fk.FromRelation) {
				continue
			}
			var consumed []int
			ok := true
			for i := range fk.FromColumns {
				ci, found := findEquality(conds, used, v, fk.FromColumns[i], a.Var, fk.ToColumns[i])
				if !found {
					ok = false
					break
				}
				consumed = append(consumed, ci)
			}
			if ok {
				return consumed, true
			}
		}
	}
	return nil, false
}

// findEquality locates an unused equality condition v1.f1 = v2.f2 (either
// orientation) among conds.
func findEquality(conds []rxl.Condition, used []bool, v1, f1, v2, f2 string) (int, bool) {
	for i, c := range conds {
		if used[i] || c.Op != sqlast.OpEq || c.L.IsConst || c.R.IsConst {
			continue
		}
		if c.L.Var == v1 && strings.EqualFold(c.L.Field, f1) && c.R.Var == v2 && strings.EqualFold(c.R.Field, f2) {
			return i, true
		}
		if c.R.Var == v1 && strings.EqualFold(c.R.Field, f1) && c.L.Var == v2 && strings.EqualFold(c.L.Field, f2) {
			return i, true
		}
	}
	return 0, false
}
