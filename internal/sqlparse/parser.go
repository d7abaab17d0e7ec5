package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"silkroute/internal/sqlast"
	"silkroute/internal/value"
)

// reservedWords may not be used as implicit table aliases; seeing one after
// a table name means the clause continues rather than naming an alias.
var reservedWords = map[string]bool{
	"select": true, "from": true, "where": true, "as": true, "and": true,
	"or": true, "on": true, "join": true, "left": true, "right": true,
	"outer": true, "inner": true, "union": true, "order": true, "by": true,
	"is": true, "not": true, "null": true, "sort": true, "with": true,
}

type parser struct {
	toks []token
	pos  int
	src  string
}

// Parse parses one SQL statement.
func Parse(src string) (sqlast.Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	q, err := p.parseQuery(true)
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("trailing input starting with %q", p.peek().text)
	}
	return q, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return token{kind: tokEOF}
}
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectKeyword(kw string) error {
	if !p.peek().isKeyword(kw) {
		return p.errorf("expected %q, found %q", kw, p.peek().text)
	}
	p.advance()
	return nil
}

func (p *parser) expectPunct(s string) error {
	if !p.peek().isPunct(s) {
		return p.errorf("expected %q, found %q", s, p.peek().text)
	}
	p.advance()
	return nil
}

// parseQuery parses "term (union term)* [order by ...]" where each term is
// a select, optionally parenthesized.
func (p *parser) parseQuery(allowOrderBy bool) (sqlast.Query, error) {
	first, err := p.parseUnionTerm()
	if err != nil {
		return nil, err
	}
	branches := []*sqlast.Select{first}
	for p.peek().isKeyword("union") {
		p.advance()
		// "union all" is accepted and means the same thing.
		if p.peek().isKeyword("all") {
			p.advance()
		}
		next, err := p.parseUnionTerm()
		if err != nil {
			return nil, err
		}
		branches = append(branches, next)
	}
	var order []sqlast.OrderItem
	if allowOrderBy {
		order, err = p.parseOrderBy()
		if err != nil {
			return nil, err
		}
	}
	if len(branches) == 1 {
		branches[0].OrderBy = append(branches[0].OrderBy, order...)
		return branches[0], nil
	}
	return &sqlast.Union{Branches: branches, OrderBy: order}, nil
}

// parseUnionTerm parses either "(select ...)" or a bare select without
// trailing ORDER BY (the union's ORDER BY belongs to the whole union).
func (p *parser) parseUnionTerm() (*sqlast.Select, error) {
	if p.peek().isPunct("(") {
		p.advance()
		s, err := p.parseSelect(false)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return s, nil
	}
	return p.parseSelect(false)
}

func (p *parser) parseSelect(allowOrderBy bool) (*sqlast.Select, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	s := &sqlast.Select{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.peek().isPunct(",") {
			break
		}
		p.advance()
	}
	if p.peek().isKeyword("from") {
		p.advance()
		for {
			te, err := p.parseTableExpr()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, te)
			if !p.peek().isPunct(",") {
				break
			}
			p.advance()
		}
	}
	if p.peek().isKeyword("where") {
		p.advance()
		w, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if allowOrderBy {
		order, err := p.parseOrderBy()
		if err != nil {
			return nil, err
		}
		s.OrderBy = order
	}
	return s, nil
}

func (p *parser) parseOrderBy() ([]sqlast.OrderItem, error) {
	// Accept both "order by" and the paper's "sort by" spelling.
	if !(p.peek().isKeyword("order") || p.peek().isKeyword("sort")) || !p.peek2().isKeyword("by") {
		return nil, nil
	}
	p.advance()
	p.advance()
	var items []sqlast.OrderItem
	for {
		e, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if p.peek().isKeyword("asc") {
			p.advance()
		}
		items = append(items, sqlast.OrderItem{Expr: e})
		if !p.peek().isPunct(",") {
			break
		}
		p.advance()
	}
	return items, nil
}

func (p *parser) parseSelectItem() (sqlast.SelectItem, error) {
	e, err := p.parseOperand()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	item := sqlast.SelectItem{Expr: e}
	if p.peek().isKeyword("as") {
		p.advance()
		if p.peek().kind != tokIdent {
			return sqlast.SelectItem{}, p.errorf("expected alias after 'as', found %q", p.peek().text)
		}
		item.Alias = p.advance().text
	} else if p.peek().kind == tokIdent && !reservedWords[strings.ToLower(p.peek().text)] {
		item.Alias = p.advance().text
	}
	return item, nil
}

// parseTableExpr parses a table primary followed by any chain of joins.
func (p *parser) parseTableExpr() (sqlast.TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var kind sqlast.JoinKind
		switch {
		case p.peek().isKeyword("left"):
			p.advance()
			if p.peek().isKeyword("outer") {
				p.advance()
			}
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinLeftOuter
		case p.peek().isKeyword("inner"):
			p.advance()
			if err := p.expectKeyword("join"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinInner
		case p.peek().isKeyword("join"):
			p.advance()
			kind = sqlast.JoinInner
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		on, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Join{Kind: kind, L: left, R: right, On: on}
	}
}

// parseTablePrimary parses a base table, a derived table "(select…) as q",
// or a parenthesized join expression.
func (p *parser) parseTablePrimary() (sqlast.TableExpr, error) {
	if p.peek().isPunct("(") {
		// A "(" may open a derived table ("(select…) as q", possibly a
		// union of parenthesized selects) or a parenthesized join
		// expression. When the next token is another "(", the two cases
		// are not distinguishable by bounded lookahead, so try the derived
		// parse first and backtrack on failure.
		if p.peek2().isKeyword("select") || p.peek2().isPunct("(") {
			save := p.pos
			d, err := p.parseDerived()
			if err == nil {
				return d, nil
			}
			p.pos = save
			if p.peek2().isKeyword("select") {
				// A select in parentheses can only be a derived table, so
				// surface the real error instead of a misleading fallback.
				return nil, err
			}
		}
		p.advance()
		te, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return te, nil
	}
	if p.peek().kind != tokIdent {
		return nil, p.errorf("expected table name, found %q", p.peek().text)
	}
	bt := &sqlast.BaseTable{Name: p.advance().text}
	return p.finishBaseTable(bt)
}

// parseDerived parses "(query) [as] alias".
func (p *parser) parseDerived() (*sqlast.Derived, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	q, err := p.parseQuery(false)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.peek().isKeyword("as") {
		p.advance()
	}
	if p.peek().kind != tokIdent || reservedWords[strings.ToLower(p.peek().text)] {
		return nil, p.errorf("derived table requires an alias")
	}
	return &sqlast.Derived{Query: q, Alias: p.advance().text}, nil
}

func (p *parser) finishBaseTable(bt *sqlast.BaseTable) (sqlast.TableExpr, error) {
	if p.peek().isKeyword("as") {
		p.advance()
		if p.peek().kind != tokIdent {
			return nil, p.errorf("expected alias after 'as'")
		}
		bt.Alias = p.advance().text
	} else if p.peek().kind == tokIdent && !reservedWords[strings.ToLower(p.peek().text)] {
		bt.Alias = p.advance().text
	}
	if bt.Alias == "" {
		bt.Alias = bt.Name
	}
	return bt, nil
}

func (p *parser) parseOrExpr() (sqlast.Expr, error) {
	first, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	terms := []sqlast.Expr{first}
	for p.peek().isKeyword("or") {
		p.advance()
		next, err := p.parseAndExpr()
		if err != nil {
			return nil, err
		}
		terms = append(terms, next)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return &sqlast.Or{Terms: terms}, nil
}

func (p *parser) parseAndExpr() (sqlast.Expr, error) {
	first, err := p.parsePredicate()
	if err != nil {
		return nil, err
	}
	terms := []sqlast.Expr{first}
	for p.peek().isKeyword("and") {
		p.advance()
		next, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		terms = append(terms, next)
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return &sqlast.And{Terms: terms}, nil
}

func (p *parser) parsePredicate() (sqlast.Expr, error) {
	if p.peek().isPunct("(") {
		p.advance()
		e, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if p.peek().isKeyword("is") {
		p.advance()
		negate := false
		if p.peek().isKeyword("not") {
			p.advance()
			negate = true
		}
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return &sqlast.IsNull{E: l, Negate: negate}, nil
	}
	var op sqlast.CompareOp
	switch {
	case p.peek().isPunct("="):
		op = sqlast.OpEq
	case p.peek().isPunct("<>"):
		op = sqlast.OpNe
	case p.peek().isPunct("<"):
		op = sqlast.OpLt
	case p.peek().isPunct("<="):
		op = sqlast.OpLe
	case p.peek().isPunct(">"):
		op = sqlast.OpGt
	case p.peek().isPunct(">="):
		op = sqlast.OpGe
	default:
		return nil, p.errorf("expected comparison operator, found %q", p.peek().text)
	}
	p.advance()
	r, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &sqlast.Compare{Op: op, L: l, R: r}, nil
}

// parseOperand parses a literal or a (possibly qualified) column reference.
func (p *parser) parseOperand() (sqlast.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad numeric literal %q: %v", t.text, err)
			}
			return &sqlast.Literal{Val: value.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q: %v", t.text, err)
		}
		return &sqlast.Literal{Val: value.Int(i)}, nil
	case tokString:
		p.advance()
		return &sqlast.Literal{Val: value.String(t.text)}, nil
	case tokIdent:
		if t.isKeyword("null") {
			p.advance()
			return sqlast.NullLit(), nil
		}
		if reservedWords[strings.ToLower(t.text)] {
			return nil, p.errorf("expected expression, found keyword %q", t.text)
		}
		p.advance()
		if p.peek().isPunct(".") {
			p.advance()
			if p.peek().kind != tokIdent {
				return nil, p.errorf("expected column name after %q.", t.text)
			}
			col := p.advance().text
			return &sqlast.ColumnRef{Table: t.text, Column: col}, nil
		}
		return &sqlast.ColumnRef{Column: t.text}, nil
	default:
		return nil, p.errorf("expected expression, found %q", t.text)
	}
}
