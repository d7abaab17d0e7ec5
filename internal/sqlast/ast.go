// Package sqlast defines the abstract syntax of the SQL subset spoken
// between SilkRoute and the target relational engine.
//
// The subset is exactly what the paper's plan generator emits (§3.4):
// select lists with column references, integer literals ("1 as L1") and
// explicit null padding ("null as suppkey"); comma joins with conjunctive
// where clauses; LEFT OUTER JOIN with an ON condition that may be a
// disjunction of conjunctions; derived tables ("(select ...) as Q");
// UNION with positional, null-padded branches (the paper's "outer union");
// and ORDER BY over output columns.
package sqlast

import "silkroute/internal/value"

// CompareOp is a comparison operator in a predicate.
type CompareOp uint8

// Comparison operators of the SQL subset.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Expr is a scalar or boolean expression.
type Expr interface{ exprNode() }

// ColumnRef references a column, optionally qualified by a table alias.
// An unqualified reference may also name an output alias of the current
// select (needed for ON conditions like "L2 = 1" over union branches).
type ColumnRef struct {
	Table  string // optional qualifier
	Column string
}

// Literal is a constant value (integer, float, string, or NULL).
type Literal struct {
	Val value.Value
}

// Compare is a binary comparison. SQL three-valued logic applies: a
// comparison involving NULL is not true.
type Compare struct {
	Op   CompareOp
	L, R Expr
}

// And is a conjunction of one or more terms.
type And struct {
	Terms []Expr
}

// Or is a disjunction of one or more terms.
type Or struct {
	Terms []Expr
}

// IsNull tests a value for (non-)nullness.
type IsNull struct {
	E      Expr
	Negate bool // true for IS NOT NULL
}

func (*ColumnRef) exprNode() {}
func (*Literal) exprNode()   {}
func (*Compare) exprNode()   {}
func (*And) exprNode()       {}
func (*Or) exprNode()        {}
func (*IsNull) exprNode()    {}

// SelectItem is one entry of a select list.
type SelectItem struct {
	Expr  Expr
	Alias string // optional "as alias"
}

// TableExpr is a source of rows in a FROM clause.
type TableExpr interface{ tableNode() }

// BaseTable is a stored relation with an optional alias.
type BaseTable struct {
	Name  string
	Alias string // optional; defaults to Name
}

// JoinKind distinguishes the join operators of the subset.
type JoinKind uint8

// The join kinds. Comma joins in a FROM list are represented as separate
// entries in Select.From rather than as Join nodes.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
)

// String returns the SQL spelling of the join kind.
func (k JoinKind) String() string {
	if k == JoinLeftOuter {
		return "left outer join"
	}
	return "join"
}

// Join combines two table expressions with an ON condition.
type Join struct {
	Kind JoinKind
	L, R TableExpr
	On   Expr
}

// Derived is a parenthesized subquery with an alias: "(select ...) as Q".
type Derived struct {
	Query Query
	Alias string
}

func (*BaseTable) tableNode() {}
func (*Join) tableNode()      {}
func (*Derived) tableNode()   {}

// OrderItem is one ORDER BY key (ascending; the paper needs no descending
// sorts — structural order is ascending by construction).
type OrderItem struct {
	Expr Expr
}

// Query is a complete statement: a Select or a Union.
type Query interface{ queryNode() }

// Select is a single select block.
type Select struct {
	Items   []SelectItem
	From    []TableExpr // comma-separated list; cross product
	Where   Expr        // optional
	OrderBy []OrderItem // optional
}

// Union is the paper's outer union: branches are combined positionally and
// retain duplicates (UNION ALL semantics — the generated branches are
// disjoint by their tag column, so bag vs set union is indistinguishable,
// and bag union avoids a gratuitous duplicate-elimination sort).
type Union struct {
	Branches []*Select
	OrderBy  []OrderItem // applies to the union result
}

func (*Select) queryNode() {}
func (*Union) queryNode()  {}

// OutputColumns returns the result column names of a query: the alias if
// present, the column name for bare references, and "" for unnamed
// expressions. For a union, the first branch names the columns.
func OutputColumns(q Query) []string {
	switch q := q.(type) {
	case *Select:
		names := make([]string, len(q.Items))
		for i, it := range q.Items {
			switch {
			case it.Alias != "":
				names[i] = it.Alias
			default:
				if cr, ok := it.Expr.(*ColumnRef); ok {
					names[i] = cr.Column
				}
			}
		}
		return names
	case *Union:
		if len(q.Branches) > 0 {
			return OutputColumns(q.Branches[0])
		}
	}
	return nil
}

// Conjuncts flattens an expression into its top-level AND terms.
func Conjuncts(e Expr) []Expr { return AppendConjuncts(nil, e) }

// AppendConjuncts appends an expression's top-level AND terms to dst and
// returns the extended slice, so a caller can reuse one buffer.
func AppendConjuncts(dst []Expr, e Expr) []Expr {
	if e == nil {
		return dst
	}
	if a, ok := e.(*And); ok {
		for _, t := range a.Terms {
			dst = AppendConjuncts(dst, t)
		}
		return dst
	}
	return append(dst, e)
}

// ColumnRefs appends every column reference in an expression to dst, in
// left-to-right order, and returns the extended slice. A caller that passes
// a stack buffer walks the expression without allocating.
func ColumnRefs(e Expr, dst []*ColumnRef) []*ColumnRef {
	switch e := e.(type) {
	case *ColumnRef:
		dst = append(dst, e)
	case *Compare:
		dst = ColumnRefs(e.R, ColumnRefs(e.L, dst))
	case *And:
		for _, t := range e.Terms {
			dst = ColumnRefs(t, dst)
		}
	case *Or:
		for _, t := range e.Terms {
			dst = ColumnRefs(t, dst)
		}
	case *IsNull:
		dst = ColumnRefs(e.E, dst)
	}
	return dst
}

// MakeAnd builds a conjunction, simplifying the 0- and 1-term cases.
func MakeAnd(terms []Expr) Expr {
	switch len(terms) {
	case 0:
		return nil
	case 1:
		return terms[0]
	default:
		return &And{Terms: terms}
	}
}

// Eq builds the common equality comparison between two expressions.
func Eq(l, r Expr) Expr { return &Compare{Op: OpEq, L: l, R: r} }

// Col builds a column reference.
func Col(table, column string) *ColumnRef { return &ColumnRef{Table: table, Column: column} }

// IntLit builds an integer literal expression.
func IntLit(i int64) *Literal { return &Literal{Val: value.Int(i)} }

// NullLit builds a NULL literal expression.
func NullLit() *Literal { return &Literal{Val: value.Null} }
