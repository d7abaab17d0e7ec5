// Package schema describes relational databases the way SilkRoute's planner
// needs to see them: relation and column names, keys, and the integrity
// constraints (functional and inclusion dependencies) that drive view-tree
// edge labeling (§3.5 of the paper) and view-tree reduction.
//
// The paper calls this metadata the "source description": a middleware
// system cannot inspect the target RDBMS's internals, so the constraints —
// and the list of SQL constructs the target supports — travel in a
// declarative description alongside the connection.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"silkroute/internal/value"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type value.Kind
}

// Relation describes one relation: its name, ordered columns, and the
// positions of its key attributes (the '*'-prefixed attributes of Fig. 1).
type Relation struct {
	Name    string
	Columns []Column
	Key     []string // column names forming the primary key
}

// ColumnIndex returns the position of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the relation has the named column.
func (r *Relation) HasColumn(name string) bool { return r.ColumnIndex(name) >= 0 }

// ColumnNames returns the relation's column names in order.
func (r *Relation) ColumnNames() []string {
	names := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		names[i] = c.Name
	}
	return names
}

// IsKey reports whether the given set of columns contains the relation's
// primary key (and hence functionally determines every attribute).
func (r *Relation) IsKey(cols []string) bool {
	for _, k := range r.Key {
		found := false
		for _, c := range cols {
			if strings.EqualFold(c, k) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return len(r.Key) > 0
}

// ForeignKey declares that the FromColumns of FromRelation reference the
// ToColumns of ToRelation. Foreign keys induce the inclusion dependencies
// used by the '1' vs '?' edge-label decision.
type ForeignKey struct {
	FromRelation string
	FromColumns  []string
	ToRelation   string
	ToColumns    []string
	// Total reports that every FromColumns value is non-null, i.e. the
	// inclusion R_from[cols] ⊆ R_to[cols] holds with no missing rows. TPC-H
	// foreign keys are total.
	Total bool
}

// FD is a functional dependency X → Y over the columns of one relation.
type FD struct {
	Relation string
	From     []string
	To       []string
}

// Schema is the full source description of one relational database.
type Schema struct {
	Relations map[string]*Relation
	FKs       []ForeignKey
	FDs       []FD
	// Supports lists the SQL constructs the target engine implements.
	// SilkRoute consults it to rule out impermissible plans (§3.4).
	Supports Capabilities
}

// Capabilities enumerates the optional SQL constructs a target RDBMS may or
// may not support. A fully partitioned plan needs none of them.
type Capabilities struct {
	LeftOuterJoin bool
	OuterUnion    bool
}

// AllCapabilities is the capability set of a full-featured engine.
var AllCapabilities = Capabilities{LeftOuterJoin: true, OuterUnion: true}

// New returns an empty schema with full capabilities.
func New() *Schema {
	return &Schema{Relations: make(map[string]*Relation), Supports: AllCapabilities}
}

// AddRelation defines a relation. Column names must be unique within the
// relation and key columns must exist.
func (s *Schema) AddRelation(name string, key []string, cols ...Column) (*Relation, error) {
	if _, dup := s.Relations[strings.ToLower(name)]; dup {
		return nil, fmt.Errorf("schema: duplicate relation %q", name)
	}
	seen := make(map[string]bool)
	for _, c := range cols {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return nil, fmt.Errorf("schema: relation %q: duplicate column %q", name, c.Name)
		}
		seen[lc] = true
	}
	r := &Relation{Name: name, Columns: cols, Key: key}
	for _, k := range key {
		if !r.HasColumn(k) {
			return nil, fmt.Errorf("schema: relation %q: key column %q not defined", name, k)
		}
	}
	s.Relations[strings.ToLower(name)] = r
	// A key is a functional dependency key → all columns.
	if len(key) > 0 {
		s.FDs = append(s.FDs, FD{Relation: name, From: key, To: r.ColumnNames()})
	}
	return r, nil
}

// MustAddRelation is AddRelation for statically-known schemas; it panics on
// error.
func (s *Schema) MustAddRelation(name string, key []string, cols ...Column) *Relation {
	r, err := s.AddRelation(name, key, cols...)
	if err != nil {
		panic(err)
	}
	return r
}

// Relation looks up a relation case-insensitively.
func (s *Schema) Relation(name string) (*Relation, bool) {
	r, ok := s.Relations[strings.ToLower(name)]
	return r, ok
}

// AddForeignKey declares a foreign key after validating both sides.
func (s *Schema) AddForeignKey(fk ForeignKey) error {
	from, ok := s.Relation(fk.FromRelation)
	if !ok {
		return fmt.Errorf("schema: foreign key from unknown relation %q", fk.FromRelation)
	}
	to, ok := s.Relation(fk.ToRelation)
	if !ok {
		return fmt.Errorf("schema: foreign key to unknown relation %q", fk.ToRelation)
	}
	if len(fk.FromColumns) != len(fk.ToColumns) || len(fk.FromColumns) == 0 {
		return fmt.Errorf("schema: foreign key %s→%s: mismatched column lists", fk.FromRelation, fk.ToRelation)
	}
	for _, c := range fk.FromColumns {
		if !from.HasColumn(c) {
			return fmt.Errorf("schema: foreign key: %s has no column %q", fk.FromRelation, c)
		}
	}
	for _, c := range fk.ToColumns {
		if !to.HasColumn(c) {
			return fmt.Errorf("schema: foreign key: %s has no column %q", fk.ToRelation, c)
		}
	}
	s.FKs = append(s.FKs, fk)
	return nil
}

// MustAddForeignKey panics on error; for statically-known schemas.
func (s *Schema) MustAddForeignKey(fk ForeignKey) {
	if err := s.AddForeignKey(fk); err != nil {
		panic(err)
	}
}

// RelationNames returns the sorted names of all relations.
func (s *Schema) RelationNames() []string {
	names := make([]string, 0, len(s.Relations))
	for _, r := range s.Relations {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	return names
}
