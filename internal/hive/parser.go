package hive

import (
	"fmt"
	"strconv"
	"strings"

	"dynamicmr/internal/data"
	"dynamicmr/internal/expr"
)

// Parse turns one HiveQL statement (optionally ';'-terminated) into an
// AST.
func Parse(sql string) (Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{src: sql, toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tkOp, ";")
	if p.peek().kind != tkEOF {
		return nil, p.errf("trailing input %q", p.peek().text)
	}
	return stmt, nil
}

// ParsePredicate parses a bare predicate expression ("L_QUANTITY > 50").
func ParsePredicate(src string) (expr.Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tkEOF {
		return nil, p.errf("trailing input %q", p.peek().text)
	}
	return e, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("hive: %s (at offset %d in %q)",
		fmt.Sprintf(format, args...), p.peek().pos, p.src)
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tkEOF {
		p.pos++
	}
	return t
}

// accept consumes the next token when it matches kind+text.
func (p *parser) accept(kind tokenKind, text string) bool {
	t := p.peek()
	if t.kind == kind && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.accept(tkKeyword, kw) {
		return p.errf("expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) expectOp(op string) error {
	if !p.accept(tkOp, op) {
		return p.errf("expected %q, found %q", op, p.peek().text)
	}
	return nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tkKeyword {
		return nil, p.errf("expected a statement, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "SET":
		return p.parseSet()
	case "EXPLAIN":
		p.next()
		s, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Select: s}, nil
	case "SHOW":
		p.next()
		if err := p.expectKeyword("TABLES"); err != nil {
			return nil, err
		}
		return ShowTablesStmt{}, nil
	case "DESCRIBE":
		p.next()
		id := p.next()
		if id.kind != tkIdent {
			return nil, p.errf("DESCRIBE needs a table name")
		}
		return &DescribeStmt{Table: id.text}, nil
	}
	return nil, p.errf("unsupported statement %q", t.text)
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	if p.accept(tkOp, "*") {
		s.Items = nil
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			s.Items = append(s.Items, item)
			if !p.accept(tkOp, ",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tkIdent {
		return nil, p.errf("expected table name, found %q", t.text)
	}
	s.Table = t.text
	if p.accept(tkKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.accept(tkKeyword, "GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			t := p.next()
			if t.kind != tkIdent {
				return nil, p.errf("GROUP BY needs column names, found %q", t.text)
			}
			s.GroupBy = append(s.GroupBy, strings.ToUpper(t.text))
			if !p.accept(tkOp, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			var key OrderKey
			t := p.next()
			switch {
			case t.kind == tkIdent:
				key.Column = strings.ToUpper(t.text)
			case t.kind == tkKeyword && aggregateFns[t.text]:
				// ORDER BY COUNT(*) etc: re-use the select-item parser
				// by backing up one token.
				p.pos--
				item, err := p.parseSelectItem()
				if err != nil {
					return nil, err
				}
				key.Column = item.Name()
			default:
				return nil, p.errf("ORDER BY needs column names, found %q", t.text)
			}
			if p.accept(tkKeyword, "DESC") {
				key.Desc = true
			} else {
				p.accept(tkKeyword, "ASC")
			}
			s.OrderBy = append(s.OrderBy, key)
			if !p.accept(tkOp, ",") {
				break
			}
		}
	}
	if p.accept(tkKeyword, "LIMIT") {
		t := p.next()
		if t.kind != tkNumber {
			return nil, p.errf("LIMIT needs a number, found %q", t.text)
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		s.Limit = n
	}
	return s, nil
}

var aggregateFns = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// parseSelectItem parses a plain column or an aggregate call.
func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.next()
	if t.kind == tkKeyword && aggregateFns[t.text] {
		if err := p.expectOp("("); err != nil {
			return SelectItem{}, err
		}
		item := SelectItem{Agg: t.text}
		if p.accept(tkOp, "*") {
			if t.text != "COUNT" {
				return SelectItem{}, p.errf("%s(*) is not valid; only COUNT(*)", t.text)
			}
		} else {
			arg := p.next()
			if arg.kind != tkIdent {
				return SelectItem{}, p.errf("%s needs a column argument, found %q", t.text, arg.text)
			}
			item.AggCol = strings.ToUpper(arg.text)
		}
		if err := p.expectOp(")"); err != nil {
			return SelectItem{}, err
		}
		return item, nil
	}
	if t.kind != tkIdent {
		return SelectItem{}, p.errf("expected column name or aggregate, found %q", t.text)
	}
	return SelectItem{Column: strings.ToUpper(t.text)}, nil
}

func (p *parser) parseSet() (Statement, error) {
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	key := p.next()
	if key.kind != tkIdent {
		return nil, p.errf("SET needs a parameter name, found %q", key.text)
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	// Value: everything until ';' or EOF, re-joined (conf values may be
	// numbers, idents, keywords or strings).
	var parts []string
	for {
		t := p.peek()
		if t.kind == tkEOF || (t.kind == tkOp && t.text == ";") {
			break
		}
		p.next()
		parts = append(parts, t.text)
	}
	if len(parts) == 0 {
		return nil, p.errf("SET %s needs a value", key.text)
	}
	return &SetStmt{Key: key.text, Value: strings.Join(parts, " ")}, nil
}

// Expression grammar, loosest to tightest:
//
//	expr  := or
//	or    := and { OR and }
//	and   := not { AND not }
//	not   := NOT not | pred
//	pred  := add [ cmpOp add | [NOT] BETWEEN add AND add | [NOT] IN (...) | [NOT] LIKE 'pat' ]
//	add   := mul { (+|-) mul }
//	mul   := unary { (*|/) unary }
//	unary := - unary | primary
func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &expr.Binary{Op: expr.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tkKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &expr.Binary{Op: expr.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.accept(tkKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Not{X: x}, nil
	}
	return p.parsePredicate()
}

var cmpOps = map[string]expr.BinaryOp{
	"=": expr.OpEq, "==": expr.OpEq, "!=": expr.OpNe, "<>": expr.OpNe,
	"<": expr.OpLt, "<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parsePredicate() (expr.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// Comparison?
	if t := p.peek(); t.kind == tkOp {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &expr.Binary{Op: op, L: l, R: r}, nil
		}
	}
	negate := false
	if p.accept(tkKeyword, "NOT") {
		negate = true
	}
	wrap := func(e expr.Expr) expr.Expr {
		if negate {
			return &expr.Not{X: e}
		}
		return e
	}
	switch {
	case p.accept(tkKeyword, "BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return wrap(&expr.Between{X: l, Lo: lo, Hi: hi}), nil
	case p.accept(tkKeyword, "IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []expr.Expr
		for {
			e, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.accept(tkOp, ")") {
				break
			}
			if err := p.expectOp(","); err != nil {
				return nil, err
			}
		}
		return wrap(&expr.In{X: l, List: list}), nil
	case p.accept(tkKeyword, "LIKE"):
		t := p.next()
		if t.kind != tkString {
			return nil, p.errf("LIKE needs a string pattern, found %q", t.text)
		}
		return wrap(&expr.Like{X: l, Pattern: t.text}), nil
	}
	if negate {
		return nil, p.errf("dangling NOT")
	}
	return l, nil
}

func (p *parser) parseAdd() (expr.Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tkOp, "+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &expr.Binary{Op: expr.OpAdd, L: l, R: r}
		case p.accept(tkOp, "-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &expr.Binary{Op: expr.OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tkOp, "*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &expr.Binary{Op: expr.OpMul, L: l, R: r}
		case p.accept(tkOp, "/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &expr.Binary{Op: expr.OpDiv, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.accept(tkOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold literal negation so "-5" prints as -5, not (-5). A float
		// is subtracted from 0, so "-0.0" folds to 0, which renders as
		// "0" and parses back to a zero, not to "-0", which would not.
		if lit, ok := x.(*expr.Literal); ok && lit.Val.IsNumeric() {
			if lit.Val.Kind() == data.KindInt {
				return &expr.Literal{Val: data.Int(-lit.Val.AsInt())}, nil
			}
			return &expr.Literal{Val: data.Float(0 - lit.Val.AsFloat())}, nil
		}
		return &expr.Neg{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.next()
	switch t.kind {
	case tkNumber:
		if !strings.Contains(t.text, ".") {
			if n, err := strconv.ParseInt(t.text, 10, 64); err == nil {
				return &expr.Literal{Val: data.Int(n)}, nil
			}
			// Too large for an INT: a FLOAT, which is also how a
			// FLOAT literal of that size renders.
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &expr.Literal{Val: data.Float(f)}, nil
	case tkString:
		return &expr.Literal{Val: data.Str(t.text)}, nil
	case tkIdent:
		return &expr.Column{Name: strings.ToUpper(t.text)}, nil
	case tkKeyword:
		switch t.text {
		case "TRUE":
			return &expr.Literal{Val: data.Bool(true)}, nil
		case "FALSE":
			return &expr.Literal{Val: data.Bool(false)}, nil
		case "NULL":
			return &expr.Literal{Val: data.Null()}, nil
		}
	case tkOp:
		if t.text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}
