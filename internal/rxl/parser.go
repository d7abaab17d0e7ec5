package rxl

import (
	"strconv"
	"strings"
	"unicode"

	"silkroute/internal/sqlast"
	"silkroute/internal/value"
)

// tokenKind classifies RXL tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokVar // $ident
	tokNumber
	tokString
	tokPunct // < > </ , . = <> <= >= { } ( ) @ /
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '$':
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == start+1 {
			return token{}, errorAt(start, "bare '$'")
		}
		return token{kind: tokVar, text: l.src[start+1 : l.pos], pos: start}, nil
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	case c >= '0' && c <= '9' || c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
		l.pos++
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case c == '"' || c == '\'':
		quote := c
		l.pos++
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, errorAt(start, "unterminated string")
			}
			if l.src[l.pos] == quote {
				l.pos++
				return token{kind: tokString, text: b.String(), pos: start}, nil
			}
			b.WriteByte(l.src[l.pos])
			l.pos++
		}
	case c == '<':
		l.pos++
		if l.pos < len(l.src) {
			switch l.src[l.pos] {
			case '/':
				l.pos++
				return token{kind: tokPunct, text: "</", pos: start}, nil
			case '=', '>':
				l.pos++
				return token{kind: tokPunct, text: l.src[start:l.pos], pos: start}, nil
			}
		}
		return token{kind: tokPunct, text: "<", pos: start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return token{kind: tokPunct, text: l.src[start:l.pos], pos: start}, nil
	case strings.IndexByte(",.={}()@/", c) >= 0:
		l.pos++
		return token{kind: tokPunct, text: string(c), pos: start}, nil
	default:
		return token{}, errorAt(start, "unexpected character %q", c)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

type parser struct {
	toks []token
	pos  int
}

// Parse parses an RXL view definition.
func Parse(src string) (*Query, error) {
	lx := &lexer{src: src}
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			break
		}
	}
	p := &parser{toks: toks}
	q := &Query{}
	for p.peek().kind != tokEOF {
		b, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		q.Blocks = append(q.Blocks, b)
	}
	if len(q.Blocks) == 0 {
		return nil, &Error{Offset: -1, Msg: "empty query"}
	}
	return q, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return errorAt(p.peek().pos, format, args...)
}

func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) expectPunct(s string) error {
	if p.peek().kind != tokPunct || p.peek().text != s {
		return p.errorf("expected %q, found %q", s, p.peek().text)
	}
	p.advance()
	return nil
}

// parseBlock parses "[from ...] [where ...] construct element".
func (p *parser) parseBlock() (*Block, error) {
	b := &Block{}
	if p.isKeyword("from") {
		p.advance()
		for {
			if p.peek().kind != tokIdent {
				return nil, p.errorf("expected relation name in from clause, found %q", p.peek().text)
			}
			table := p.advance().text
			if p.peek().kind != tokVar {
				return nil, p.errorf("expected tuple variable after relation %q", table)
			}
			b.From = append(b.From, Binding{Table: table, Var: p.advance().text})
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.advance()
				continue
			}
			break
		}
	}
	if p.isKeyword("where") {
		p.advance()
		for {
			c, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			b.Where = append(b.Where, c)
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.advance()
				continue
			}
			if p.isKeyword("and") {
				p.advance()
				continue
			}
			break
		}
	}
	if !p.isKeyword("construct") {
		return nil, p.errorf("expected 'construct', found %q", p.peek().text)
	}
	p.advance()
	el, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	b.Construct = el
	return b, nil
}

func (p *parser) parseCondition() (Condition, error) {
	l, err := p.parseOperand()
	if err != nil {
		return Condition{}, err
	}
	var op sqlast.CompareOp
	t := p.peek()
	if t.kind != tokPunct {
		return Condition{}, p.errorf("expected comparison operator, found %q", t.text)
	}
	switch t.text {
	case "=":
		op = sqlast.OpEq
	case "<>":
		op = sqlast.OpNe
	case "<":
		op = sqlast.OpLt
	case "<=":
		op = sqlast.OpLe
	case ">":
		op = sqlast.OpGt
	case ">=":
		op = sqlast.OpGe
	default:
		return Condition{}, p.errorf("expected comparison operator, found %q", t.text)
	}
	p.advance()
	r, err := p.parseOperand()
	if err != nil {
		return Condition{}, err
	}
	return Condition{Op: op, L: l, R: r}, nil
}

func (p *parser) parseOperand() (Operand, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.advance()
		if err := p.expectPunct("."); err != nil {
			return Operand{}, err
		}
		if p.peek().kind != tokIdent {
			return Operand{}, p.errorf("expected field name after $%s.", t.text)
		}
		return FieldRef(t.text, p.advance().text), nil
	case tokNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Operand{}, p.errorf("bad number %q", t.text)
			}
			return ConstOp(value.Float(f)), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Operand{}, p.errorf("bad integer %q", t.text)
		}
		return ConstOp(value.Int(i)), nil
	case tokString:
		p.advance()
		return ConstOp(value.String(t.text)), nil
	default:
		return Operand{}, p.errorf("expected operand, found %q", t.text)
	}
}

// parseElement parses "<tag [@Skolem(args)]> content* </tag>".
func (p *parser) parseElement() (*Element, error) {
	if err := p.expectPunct("<"); err != nil {
		return nil, err
	}
	if p.peek().kind != tokIdent {
		return nil, p.errorf("expected element tag, found %q", p.peek().text)
	}
	el := &Element{Tag: p.advance().text}
	if p.peek().kind == tokPunct && p.peek().text == "@" {
		p.advance()
		sk, err := p.parseSkolem()
		if err != nil {
			return nil, err
		}
		el.Skolem = sk
	}
	// Self-closing element: <tag/>.
	if p.peek().kind == tokPunct && p.peek().text == "/" {
		p.advance()
		if err := p.expectPunct(">"); err != nil {
			return nil, err
		}
		return el, nil
	}
	if err := p.expectPunct(">"); err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tokPunct && t.text == "</":
			p.advance()
			if p.peek().kind != tokIdent {
				return nil, p.errorf("expected closing tag name")
			}
			closeTag := p.advance().text
			if !strings.EqualFold(closeTag, el.Tag) {
				return nil, p.errorf("mismatched closing tag </%s> for <%s>", closeTag, el.Tag)
			}
			if err := p.expectPunct(">"); err != nil {
				return nil, err
			}
			return el, nil
		case t.kind == tokPunct && t.text == "<":
			child, err := p.parseElement()
			if err != nil {
				return nil, err
			}
			el.Content = append(el.Content, child)
		case t.kind == tokPunct && t.text == "{":
			p.advance()
			b, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			el.Content = append(el.Content, &Nested{Block: b})
		case t.kind == tokVar || t.kind == tokString || t.kind == tokNumber:
			op, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			el.Content = append(el.Content, &Text{Expr: op})
		case t.kind == tokEOF:
			return nil, p.errorf("unexpected end of input inside <%s>", el.Tag)
		default:
			return nil, p.errorf("unexpected %q inside <%s>", t.text, el.Tag)
		}
	}
}

func (p *parser) parseSkolem() (*SkolemTerm, error) {
	if p.peek().kind != tokIdent {
		return nil, p.errorf("expected Skolem function name after '@'")
	}
	sk := &SkolemTerm{Name: p.advance().text}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if p.peek().kind == tokPunct && p.peek().text == ")" {
		p.advance()
		return sk, nil
	}
	for {
		op, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		sk.Args = append(sk.Args, op)
		if p.peek().kind == tokPunct && p.peek().text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return sk, nil
}
