package minicc

import "strconv"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []Token
	pos  int
}

// ParseStmts parses a statement list (a virus body or local-declaration
// section).
func ParseStmts(src string) ([]Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Stmt
	for !p.at(TokEOF, "") {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokKind, text string) bool {
	t := p.cur()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind TokKind, text string) (Token, error) {
	if !p.at(kind, text) {
		return Token{}, errf(p.cur().Pos, "expected %q, found %q",
			text, p.cur().Text)
	}
	return p.next(), nil
}

// typeStart reports whether the current token begins a declaration.
func (p *parser) typeStart() bool {
	if p.cur().Kind != TokKeyword {
		return false
	}
	switch p.cur().Text {
	case "volatile", "const", "unsigned", "long", "int", "char", "void":
		return true
	}
	return false
}

// parseBaseType consumes qualifiers and a base type. Accepted spellings:
// [volatile|const]* (unsigned long long | long long | unsigned | int |
// long | char | void).
func (p *parser) parseBaseType() (Type, error) {
	t := Type{}
	seenType := false
	for {
		switch {
		case p.accept(TokKeyword, "volatile"), p.accept(TokKeyword, "const"):
			// qualifiers carry no semantics here
		case p.accept(TokKeyword, "unsigned"):
			t.Unsigned = true
			seenType = true
		case p.accept(TokKeyword, "long"), p.accept(TokKeyword, "int"),
			p.accept(TokKeyword, "char"), p.accept(TokKeyword, "void"):
			seenType = true
		default:
			if !seenType {
				return t, errf(p.cur().Pos, "expected type, found %q",
					p.cur().Text)
			}
			return t, nil
		}
	}
}

func (p *parser) statement() (Stmt, error) {
	tok := p.cur()
	switch {
	case p.typeStart():
		return p.declaration()
	case p.accept(TokPunct, "{"):
		b := &Block{Pos: tok.Pos}
		for !p.accept(TokPunct, "}") {
			if p.at(TokEOF, "") {
				return nil, errf(tok.Pos, "unterminated block")
			}
			s, err := p.statement()
			if err != nil {
				return nil, err
			}
			b.Stmts = append(b.Stmts, s)
		}
		return b, nil
	case p.accept(TokKeyword, "if"):
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		then, err := p.statement()
		if err != nil {
			return nil, err
		}
		st := &If{Pos: tok.Pos, Cond: cond, Then: then}
		if p.accept(TokKeyword, "else") {
			if st.Else, err = p.statement(); err != nil {
				return nil, err
			}
		}
		return st, nil
	case p.accept(TokKeyword, "for"):
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		st := &For{Pos: tok.Pos}
		if !p.accept(TokPunct, ";") {
			if p.typeStart() {
				d, err := p.declaration()
				if err != nil {
					return nil, err
				}
				st.Init = d
			} else {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				st.Init = &ExprStmt{Pos: e.exprPos(), E: e}
				if _, err := p.expect(TokPunct, ";"); err != nil {
					return nil, err
				}
			}
		}
		if !p.accept(TokPunct, ";") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Cond = e
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
		}
		if !p.at(TokPunct, ")") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Post = e
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		st.Body = body
		return st, nil
	case p.accept(TokKeyword, "while"):
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &While{Pos: tok.Pos, Cond: cond, Body: body}, nil
	case p.accept(TokKeyword, "do"):
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "while"); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &DoWhile{Pos: tok.Pos, Body: body, Cond: cond}, nil
	case p.accept(TokKeyword, "break"):
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Break{Pos: tok.Pos}, nil
	case p.accept(TokKeyword, "continue"):
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &Continue{Pos: tok.Pos}, nil
	case p.accept(TokKeyword, "return"):
		st := &Return{Pos: tok.Pos}
		if !p.at(TokPunct, ";") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.E = e
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return st, nil
	case p.accept(TokPunct, ";"):
		return &EmptyStmt{Pos: tok.Pos}, nil
	default:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &ExprStmt{Pos: tok.Pos, E: e}, nil
	}
}

// declaration parses `type declarator (, declarator)* ;`.
func (p *parser) declaration() (Stmt, error) {
	pos := p.cur().Pos
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	st := &DeclStmt{Pos: pos, Base: base}
	for {
		d := Declarator{}
		for p.accept(TokPunct, "*") {
			d.Ptr = true
		}
		nameTok, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		d.Name = nameTok.Text
		if p.accept(TokPunct, "[") {
			d.IsArray = true
			if !p.at(TokPunct, "]") {
				size, err := p.expr()
				if err != nil {
					return nil, err
				}
				d.ArrSize = size
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
		}
		if p.accept(TokPunct, "=") {
			if p.accept(TokPunct, "{") {
				for !p.accept(TokPunct, "}") {
					e, err := p.assignExpr()
					if err != nil {
						return nil, err
					}
					d.InitList = append(d.InitList, e)
					if !p.accept(TokPunct, ",") && !p.at(TokPunct, "}") {
						return nil, errf(p.cur().Pos,
							"expected ',' or '}' in initializer list")
					}
				}
			} else {
				e, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				d.Init = e
			}
		}
		st.Decls = append(st.Decls, d)
		if !p.accept(TokPunct, ",") {
			break
		}
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	return st, nil
}

// Expression grammar, from lowest to highest precedence:
// assignment -> ternary -> logical-or -> ... -> unary -> postfix -> primary.

func (p *parser) expr() (Expr, error) { return p.assignExpr() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *parser) assignExpr() (Expr, error) {
	lhs, err := p.ternary()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokPunct && assignOps[p.cur().Text] {
		op := p.next()
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &Assign{Pos: op.Pos, Op: op.Text, L: lhs, R: rhs}, nil
	}
	return lhs, nil
}

func (p *parser) ternary() (Expr, error) {
	cond, err := p.binary(0)
	if err != nil {
		return nil, err
	}
	if p.accept(TokPunct, "?") {
		a, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ":"); err != nil {
			return nil, err
		}
		b, err := p.ternary()
		if err != nil {
			return nil, err
		}
		return &Ternary{Pos: cond.exprPos(), Cond: cond, A: a, B: b}, nil
	}
	return cond, nil
}

// binOps lists binary operators by precedence level, lowest first.
var binOps = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) binary(level int) (Expr, error) {
	if level >= len(binOps) {
		return p.unary()
	}
	lhs, err := p.binary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range binOps[level] {
			if p.at(TokPunct, op) {
				opTok := p.next()
				rhs, err := p.binary(level + 1)
				if err != nil {
					return nil, err
				}
				lhs = &Binary{Pos: opTok.Pos, Op: op, L: lhs, R: rhs}
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
	}
}

func (p *parser) unary() (Expr, error) {
	tok := p.cur()
	switch {
	case p.accept(TokPunct, "-"), p.accept(TokPunct, "!"),
		p.accept(TokPunct, "~"), p.accept(TokPunct, "*"),
		p.accept(TokPunct, "++"), p.accept(TokPunct, "--"):
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{Pos: tok.Pos, Op: tok.Text, X: x}, nil
	case p.accept(TokPunct, "+"):
		return p.unary()
	case p.accept(TokKeyword, "sizeof"):
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		// sizeof(type) or sizeof(expr): every operand has size 8, so the
		// contents only need to parse.
		if p.typeStart() {
			if _, err := p.parseBaseType(); err != nil {
				return nil, err
			}
			for p.accept(TokPunct, "*") {
			}
		} else if _, err := p.expr(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return &Sizeof{Pos: tok.Pos}, nil
	case p.at(TokPunct, "("):
		// Either a cast or a parenthesized expression.
		save := p.pos
		p.next()
		if p.typeStart() {
			to, err := p.parseBaseType()
			if err != nil {
				return nil, err
			}
			for p.accept(TokPunct, "*") {
				to.Ptr = true
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &Cast{Pos: tok.Pos, To: to, X: x}, nil
		}
		p.pos = save
		return p.postfix()
	default:
		return p.postfix()
	}
}

func (p *parser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		tok := p.cur()
		switch {
		case p.accept(TokPunct, "["):
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			x = &Index{Pos: tok.Pos, X: x, Idx: idx}
		case p.accept(TokPunct, "++"), p.accept(TokPunct, "--"):
			x = &Postfix{Pos: tok.Pos, Op: tok.Text, X: x}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	tok := p.cur()
	switch {
	case tok.Kind == TokNumber:
		p.next()
		text := tok.Text
		for len(text) > 0 {
			last := text[len(text)-1]
			if last == 'u' || last == 'U' || last == 'l' || last == 'L' {
				text = text[:len(text)-1]
				continue
			}
			break
		}
		v, err := strconv.ParseUint(text, 0, 64)
		if err != nil {
			return nil, errf(tok.Pos, "bad number %q", tok.Text)
		}
		return &NumLit{Pos: tok.Pos, Val: v}, nil
	case tok.Kind == TokIdent:
		p.next()
		if p.accept(TokPunct, "(") {
			call := &Call{Pos: tok.Pos, Name: tok.Text}
			for !p.accept(TokPunct, ")") {
				if len(call.Args) > 0 {
					if _, err := p.expect(TokPunct, ","); err != nil {
						return nil, err
					}
				}
				arg, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
			}
			return call, nil
		}
		return &Ident{Pos: tok.Pos, Name: tok.Text}, nil
	case p.accept(TokPunct, "("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, errf(tok.Pos, "unexpected token %q", tok.Text)
	}
}
