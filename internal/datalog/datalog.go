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
	"slices"
	"strings"

	"silkroute/internal/rxl"
	"silkroute/internal/schema"
	"silkroute/internal/sqlast"
	"silkroute/internal/value"
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

// qvar qualifies a field reference as an FD attribute.
func qvar(v, f string) string { return strings.ToLower(v + "." + f) }

// FDSet derives the functional dependencies implied by a rule body under
// the schema: relation keys (qualified per tuple variable), declared
// per-relation FDs, equality conditions (both directions), and constant
// equalities (which pin a column unconditionally).
func FDSet(s *schema.Schema, atoms []Atom, conds []rxl.Condition) []schema.QualifiedFD {
	var fds []schema.QualifiedFD
	for _, a := range atoms {
		fds = append(fds, atomFDs(s, a)...)
	}
	for _, c := range conds {
		fds = append(fds, condFDs(c)...)
	}
	return fds
}

// atomFDs qualifies the FDs one tuple variable contributes: its relation's
// key, then the relation's declared FDs. Every column's qualified name is
// written once, into one buffer, and the key FD's right-hand side is the
// list of them.
func atomFDs(s *schema.Schema, a Atom) []schema.QualifiedFD {
	rel, ok := s.Relation(a.Rel)
	if !ok {
		return nil
	}
	v := strings.ToLower(a.Var)
	size := 0
	for _, c := range rel.Columns {
		size += len(v) + 1 + len(c.Name)
	}
	var b strings.Builder
	b.Grow(size)
	names := make([]string, len(rel.Columns))
	for i, c := range rel.Columns {
		start := b.Len()
		b.WriteString(v)
		b.WriteByte('.')
		b.WriteString(strings.ToLower(c.Name))
		names[i] = b.String()[start:]
	}
	// qualify names a column as written in the key or a declared FD.
	qualify := func(cols []string) []string {
		out := make([]string, len(cols))
		for i, f := range cols {
			if j := slices.IndexFunc(rel.Columns, func(c schema.Column) bool { return c.Name == f }); j >= 0 {
				out[i] = names[j]
			} else {
				out[i] = qvar(a.Var, f)
			}
		}
		return out
	}
	var fds []schema.QualifiedFD
	if len(rel.Key) > 0 {
		fds = append(fds, schema.QualifiedFD{From: qualify(rel.Key), To: names})
	}
	for _, dfd := range s.FDs {
		if strings.EqualFold(dfd.Relation, a.Rel) {
			fds = append(fds, schema.QualifiedFD{From: qualify(dfd.From), To: qualify(dfd.To)})
		}
	}
	return fds
}

// condFDs qualifies the FDs one condition contributes: an equality between
// columns both ways, an equality with a constant as a column pinned
// unconditionally, nothing otherwise.
func condFDs(c rxl.Condition) []schema.QualifiedFD {
	if c.Op != sqlast.OpEq {
		return nil
	}
	switch {
	case !c.L.IsConst && !c.R.IsConst:
		l := qvar(c.L.Var, c.L.Field)
		r := qvar(c.R.Var, c.R.Field)
		return []schema.QualifiedFD{{From: []string{l}, To: []string{r}}, {From: []string{r}, To: []string{l}}}
	case !c.L.IsConst && c.R.IsConst:
		return []schema.QualifiedFD{{To: []string{qvar(c.L.Var, c.L.Field)}}}
	case c.L.IsConst && !c.R.IsConst:
		return []schema.QualifiedFD{{To: []string{qvar(c.R.Var, c.R.Field)}}}
	}
	return nil
}

// FDs decides C1 for the many edges of one view tree. Every rule of the
// tree binds tuple variables and conditions drawn from one small set, so
// FDs qualifies each one's dependencies once and assembles a rule's FD set
// from them, instead of qualifying every column name again per edge. It is
// not safe for concurrent use.
type FDs struct {
	s     *schema.Schema
	atoms map[Atom][]schema.QualifiedFD
	conds map[rxl.Condition][]schema.QualifiedFD
	set   []schema.QualifiedFD // the last rule's FD set
}

// NewFDs returns an FDs over the schema.
func NewFDs(s *schema.Schema) *FDs {
	return &FDs{s: s, atoms: make(map[Atom][]schema.QualifiedFD), conds: make(map[rxl.Condition][]schema.QualifiedFD)}
}

// Determines is FunctionallyDetermines over the qualified dependencies.
func (f *FDs) Determines(parent, child *Rule) bool {
	f.set = f.set[:0]
	for _, a := range child.Atoms {
		fds, ok := f.atoms[a]
		if !ok {
			fds = atomFDs(f.s, a)
			f.atoms[a] = fds
		}
		f.set = append(f.set, fds...)
	}
	for _, c := range child.Conds {
		fds, ok := f.conds[c]
		if !ok {
			fds = condFDs(c)
			f.conds[c] = fds
		}
		f.set = append(f.set, fds...)
	}
	return schema.Implies(f.set, parent.Args, child.Args)
}

// FunctionallyDetermines decides C1: under the child rule's body, do the
// parent's arguments functionally determine all of the child's arguments?
// If so, each parent node instance has at most one child instance.
func FunctionallyDetermines(s *schema.Schema, parent, child *Rule) bool {
	return NewFDs(s).Determines(parent, child)
}

// GuaranteesChild decides C2: does every parent binding extend to at least
// one child binding? The check is conservative and purely constraint-
// driven: every atom the child adds beyond the parent must be reachable
// from already-guaranteed tuple variables through a *total* foreign key
// whose column pairs appear as equality conditions, and the child may add
// no other conditions (any residual filter could eliminate matches).
func GuaranteesChild(s *schema.Schema, parent, child *Rule) bool {
	// covered[i]: child atom i is guaranteed, at first because the parent
	// binds its variable. used[ci]: child condition ci is accounted for, at
	// first because the parent has it too, then because a foreign key
	// consumed it. Small rules keep both on the stack.
	var coveredBuf [16]bool
	var usedBuf [32]bool
	covered := coveredBuf[:0]
	if len(child.Atoms) > len(coveredBuf) {
		covered = make([]bool, 0, len(child.Atoms))
	}
	used := usedBuf[:0]
	if len(child.Conds) > len(usedBuf) {
		used = make([]bool, 0, len(child.Conds))
	}
	pending := 0 // atoms not yet covered
	for _, a := range child.Atoms {
		c := slices.ContainsFunc(parent.Atoms, func(p Atom) bool { return p.Var == a.Var })
		covered = append(covered, c)
		if !c {
			pending++
		}
	}
	for _, c := range child.Conds {
		used = append(used, slices.ContainsFunc(parent.Conds, func(p rxl.Condition) bool { return sameCond(p, c) }))
	}

	// Cover the first atom in order that a foreign key reaches, until none
	// is left or none can be.
	for progress := true; progress && pending > 0; {
		progress = false
		for i, a := range child.Atoms {
			if !covered[i] && coverByFK(s, child, a, covered, used) {
				covered[i] = true
				pending--
				progress = true
				break
			}
		}
	}
	// An unused condition is a residual filter that could eliminate
	// matches.
	return pending == 0 && !slices.Contains(used, false)
}

// sameCond reports whether two conditions are the same filter: the same
// operator over the same references or equal constants.
func sameCond(a, b rxl.Condition) bool {
	same := func(x, y rxl.Operand) bool {
		if x.IsConst || y.IsConst {
			return x.IsConst && y.IsConst && value.Identical(x.Const, y.Const)
		}
		return x.Var == y.Var && x.Field == y.Field
	}
	return a.Op == b.Op && same(a.L, b.L) && same(a.R, b.R)
}

// coverByFK looks for a total foreign key from some covered tuple variable,
// tried in atom order, to atom a whose column pairs all appear among the
// unused equality conditions. When it finds one it marks the conditions
// consumed and reports true.
func coverByFK(s *schema.Schema, child *Rule, a Atom, covered, used []bool) bool {
	for _, fk := range s.FKs {
		if !fk.Total || !strings.EqualFold(fk.ToRelation, a.Rel) {
			continue
		}
		for j, b := range child.Atoms {
			if !covered[j] || !strings.EqualFold(b.Rel, fk.FromRelation) {
				continue
			}
			ok := true
			for i := range fk.FromColumns {
				if _, found := findEquality(child.Conds, used, b.Var, fk.FromColumns[i], a.Var, fk.ToColumns[i]); !found {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for i := range fk.FromColumns {
				if ci, found := findEquality(child.Conds, used, b.Var, fk.FromColumns[i], a.Var, fk.ToColumns[i]); found {
					used[ci] = true
				}
			}
			return true
		}
	}
	return false
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
