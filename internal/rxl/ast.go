// Package rxl implements RXL, SilkRoute's Relational-to-XML transformation
// Language. RXL combines the extraction part of SQL (from and where
// clauses) with the construction part of XML-QL (construct clauses building
// nested XML templates).
//
// The concrete syntax follows the paper's Fig. 3:
//
//	from Supplier $s
//	construct
//	  <supplier>
//	    <name>$s.name</name>
//	    { from Nation $n
//	      where $s.nationkey = $n.nationkey
//	      construct <nation>$n.name</nation> }
//	  </supplier>
//
// Nested queries appear inside construct clauses in braces; parallel
// blocks (sibling braces) express union; where clauses separate conditions
// with commas or "and". Skolem terms may be given explicitly on an element
// as <tag @Name($s.suppkey)>; where omitted, the view-tree builder
// introduces them automatically (§3.1).
package rxl

import (
	"silkroute/internal/sqlast"
	"silkroute/internal/value"
)

// Query is a complete RXL view definition: one or more parallel top-level
// blocks.
type Query struct {
	Blocks []*Block
}

// Block is one query block: tuple-variable declarations, conditions, and
// an XML template.
type Block struct {
	From      []Binding
	Where     []Condition
	Construct *Element
}

// Binding declares a tuple variable ranging over a relation: "Supplier $s".
type Binding struct {
	Table string
	Var   string
}

// Condition is one comparison in a where clause.
type Condition struct {
	Op   sqlast.CompareOp
	L, R Operand
}

// Operand is a field reference or a constant.
type Operand struct {
	// Var and Field are set for a reference "$s.name".
	Var   string
	Field string
	// Const is set (non-null or IsConst) for a literal.
	Const   value.Value
	IsConst bool
}

// FieldRef builds a field-reference operand.
func FieldRef(v, f string) Operand { return Operand{Var: v, Field: f} }

// ConstOp builds a constant operand.
func ConstOp(v value.Value) Operand { return Operand{Const: v, IsConst: true} }

// Element is one XML template element.
type Element struct {
	Tag string
	// Skolem optionally names an explicit Skolem term: "@Name($s.k)".
	Skolem *SkolemTerm
	// Content lists the element's children in document order.
	Content []Content
}

// SkolemTerm is an explicit Skolem term on an element.
type SkolemTerm struct {
	Name string
	Args []Operand
}

// Content is an element child: a nested Element, a Text expression, or a
// nested query Block.
type Content interface{ contentNode() }

// Text is a text child: either a field reference or a string constant.
type Text struct {
	Expr Operand
}

// Nested is a nested query block in braces.
type Nested struct {
	Block *Block
}

func (*Element) contentNode() {}
func (*Text) contentNode()    {}
func (*Nested) contentNode()  {}
