package sqlast

import (
	"fmt"
	"strings"

	"silkroute/internal/value"
)

// Print renders a query as SQL text. The output is accepted verbatim by
// package sqlparse, and the round trip Print → Parse yields a structurally
// identical tree (a property the test suite checks).
func Print(q Query) string {
	var b strings.Builder
	printQuery(&b, q, 0)
	return b.String()
}

func printQuery(b *strings.Builder, q Query, depth int) {
	switch q := q.(type) {
	case *Select:
		printSelect(b, q, depth)
	case *Union:
		for i, s := range q.Branches {
			if i > 0 {
				b.WriteString(" union ")
			}
			b.WriteString("(")
			printSelect(b, s, depth+1)
			b.WriteString(")")
		}
		printOrderBy(b, q.OrderBy)
	}
}

func printSelect(b *strings.Builder, s *Select, depth int) {
	b.WriteString("select ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		printExpr(b, it.Expr)
		if it.Alias != "" {
			b.WriteString(" as ")
			b.WriteString(it.Alias)
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" from ")
		for i, t := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			printTable(b, t, depth)
		}
	}
	if s.Where != nil {
		b.WriteString(" where ")
		printExpr(b, s.Where)
	}
	printOrderBy(b, s.OrderBy)
}

func printOrderBy(b *strings.Builder, items []OrderItem) {
	if len(items) == 0 {
		return
	}
	b.WriteString(" order by ")
	for i, it := range items {
		if i > 0 {
			b.WriteString(", ")
		}
		printExpr(b, it.Expr)
	}
}

func printTable(b *strings.Builder, t TableExpr, depth int) {
	switch t := t.(type) {
	case *BaseTable:
		b.WriteString(t.Name)
		if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
			b.WriteString(" ")
			b.WriteString(t.Alias)
		}
	case *Join:
		printTable(b, t.L, depth)
		b.WriteString(" ")
		b.WriteString(t.Kind.String())
		b.WriteString(" ")
		// Parenthesize a right operand that is itself a join to keep the
		// shape unambiguous for the parser.
		if _, isJoin := t.R.(*Join); isJoin {
			b.WriteString("(")
			printTable(b, t.R, depth)
			b.WriteString(")")
		} else {
			printTable(b, t.R, depth)
		}
		b.WriteString(" on ")
		printExpr(b, t.On)
	case *Derived:
		b.WriteString("(")
		printQuery(b, t.Query, depth+1)
		b.WriteString(") as ")
		b.WriteString(t.Alias)
	}
}

// exprPrec returns a precedence rank used to decide parenthesization:
// or < and < comparison/primary.
func exprPrec(e Expr) int {
	switch e.(type) {
	case *Or:
		return 1
	case *And:
		return 2
	default:
		return 3
	}
}

func printExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *ColumnRef:
		if e.Table != "" {
			b.WriteString(e.Table)
			b.WriteString(".")
		}
		b.WriteString(e.Column)
	case *Literal:
		lit := e.Val.String()
		b.WriteString(lit)
		// An integral float ("2", "-0") would reparse as an int: keep it
		// a float literal.
		if e.Val.Kind() == value.KindFloat && strings.TrimLeft(lit, "-0123456789") == "" {
			b.WriteString(".0")
		}
	case *Compare:
		printExpr(b, e.L)
		fmt.Fprintf(b, " %s ", e.Op)
		printExpr(b, e.R)
	case *And:
		for i, t := range e.Terms {
			if i > 0 {
				b.WriteString(" and ")
			}
			printOperand(b, t, 2)
		}
	case *Or:
		for i, t := range e.Terms {
			if i > 0 {
				b.WriteString(" or ")
			}
			printOperand(b, t, 1)
		}
	case *IsNull:
		printExpr(b, e.E)
		if e.Negate {
			b.WriteString(" is not null")
		} else {
			b.WriteString(" is null")
		}
	}
}

// printOperand parenthesizes operands whose precedence is not higher than
// the surrounding operator's.
func printOperand(b *strings.Builder, e Expr, parentPrec int) {
	if exprPrec(e) <= parentPrec {
		b.WriteString("(")
		printExpr(b, e)
		b.WriteString(")")
		return
	}
	printExpr(b, e)
}
