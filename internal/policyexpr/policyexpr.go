// Package policyexpr implements the small arithmetic expression
// language in which growth policies state their grab limits — e.g.
// "max(0.5*TS, AS)" or "AS > 0 ? 0.5*AS : 0.2*TS" (Table I). The
// variables AS (available map slots) and TS (total map slots) are bound
// at evaluation time; "inf" denotes an unbounded limit.
//
// Grammar (standard precedence):
//
//	expr    := cond
//	cond    := cmp [ '?' expr ':' expr ]
//	cmp     := add [ ('<'|'<='|'>'|'>='|'=='|'!=') add ]
//	add     := mul { ('+'|'-') mul }
//	mul     := unary { ('*'|'/') unary }
//	unary   := '-' unary | primary
//	primary := number | 'inf' | ident | func '(' expr {',' expr} ')' | '(' expr ')'
//	func    := 'max' | 'min' | 'ceil' | 'floor'
package policyexpr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Expr is a compiled expression.
type Expr struct {
	src  string
	root node
}

// Env binds variable names (upper-cased) to values.
type Env map[string]float64

// Compile parses the expression once; Eval can then be called
// repeatedly.
func Compile(src string) (*Expr, error) {
	p := &parser{toks: nil, src: src}
	if err := p.lex(); err != nil {
		return nil, err
	}
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("policyexpr: trailing input %q in %q", p.peek().text, src)
	}
	return &Expr{src: src, root: root}, nil
}

// String returns the source text.
func (e *Expr) String() string { return e.src }

// Eval computes the expression under the environment. Unknown variables
// are an error. +Inf is a valid result (unbounded grab limit).
func (e *Expr) Eval(env Env) (float64, error) {
	return e.root.eval(env)
}

// node is an AST node.
type node interface {
	eval(Env) (float64, error)
}

type numNode float64

func (n numNode) eval(Env) (float64, error) { return float64(n), nil }

type varNode string

func (v varNode) eval(env Env) (float64, error) {
	if val, ok := env[string(v)]; ok {
		return val, nil
	}
	return 0, fmt.Errorf("policyexpr: unknown variable %q", string(v))
}

type binNode struct {
	op   string
	l, r node
}

func (b *binNode) eval(env Env) (float64, error) {
	l, err := b.l.eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		if r == 0 {
			return 0, fmt.Errorf("policyexpr: division by zero")
		}
		return l / r, nil
	case "<":
		return b2f(l < r), nil
	case "<=":
		return b2f(l <= r), nil
	case ">":
		return b2f(l > r), nil
	case ">=":
		return b2f(l >= r), nil
	case "==":
		return b2f(l == r), nil
	case "!=":
		return b2f(l != r), nil
	}
	return 0, fmt.Errorf("policyexpr: bad operator %q", b.op)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

type negNode struct{ x node }

func (n *negNode) eval(env Env) (float64, error) {
	v, err := n.x.eval(env)
	return -v, err
}

type condNode struct{ c, t, f node }

func (n *condNode) eval(env Env) (float64, error) {
	c, err := n.c.eval(env)
	if err != nil {
		return 0, err
	}
	if c != 0 {
		return n.t.eval(env)
	}
	return n.f.eval(env)
}

type callNode struct {
	fn   string
	args []node
}

func (n *callNode) eval(env Env) (float64, error) {
	vals := make([]float64, len(n.args))
	for i, a := range n.args {
		v, err := a.eval(env)
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	switch n.fn {
	case "max":
		out := math.Inf(-1)
		for _, v := range vals {
			out = math.Max(out, v)
		}
		return out, nil
	case "min":
		out := math.Inf(1)
		for _, v := range vals {
			out = math.Min(out, v)
		}
		return out, nil
	case "ceil":
		return math.Ceil(vals[0]), nil
	case "floor":
		return math.Floor(vals[0]), nil
	}
	return 0, fmt.Errorf("policyexpr: unknown function %q", n.fn)
}

// --- lexer ---

type tokKind uint8

const (
	tokNum tokKind = iota
	tokIdent
	tokOp
	tokEOF
)

type token struct {
	kind tokKind
	text string
	num  float64
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) lex() error {
	s := p.src
	i := 0
	for i < len(s) {
		c := rune(s[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case unicode.IsDigit(c) || c == '.':
			j := i
			for j < len(s) && (unicode.IsDigit(rune(s[j])) || s[j] == '.' || s[j] == 'e' ||
				s[j] == 'E' || ((s[j] == '+' || s[j] == '-') && j > i && (s[j-1] == 'e' || s[j-1] == 'E'))) {
				j++
			}
			f, err := strconv.ParseFloat(s[i:j], 64)
			if err != nil {
				return fmt.Errorf("policyexpr: bad number %q in %q", s[i:j], p.src)
			}
			p.toks = append(p.toks, token{kind: tokNum, num: f})
			i = j
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(s) && (unicode.IsLetter(rune(s[j])) || unicode.IsDigit(rune(s[j])) || s[j] == '_') {
				j++
			}
			p.toks = append(p.toks, token{kind: tokIdent, text: s[i:j]})
			i = j
		default:
			two := ""
			if i+1 < len(s) {
				two = s[i : i+2]
			}
			switch two {
			case "<=", ">=", "==", "!=":
				p.toks = append(p.toks, token{kind: tokOp, text: two})
				i += 2
				continue
			}
			switch c {
			case '+', '-', '*', '/', '(', ')', ',', '?', ':', '<', '>':
				p.toks = append(p.toks, token{kind: tokOp, text: string(c)})
				i++
			default:
				return fmt.Errorf("policyexpr: unexpected character %q in %q", c, p.src)
			}
		}
	}
	p.toks = append(p.toks, token{kind: tokEOF})
	return nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}
func (p *parser) eof() bool { return p.peek().kind == tokEOF }

func (p *parser) accept(op string) bool {
	if t := p.peek(); t.kind == tokOp && t.text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(op string) error {
	if !p.accept(op) {
		return fmt.Errorf("policyexpr: expected %q at %q in %q", op, p.peek().text, p.src)
	}
	return nil
}

// --- recursive descent ---

func (p *parser) parseExpr() (node, error) { return p.parseCond() }

func (p *parser) parseCond() (node, error) {
	c, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return c, nil
	}
	t, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	f, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &condNode{c: c, t: t, f: f}, nil
}

func (p *parser) parseCmp() (node, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "==", "!=", "<", ">"} {
		if p.accept(op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &binNode{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (node, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &binNode{op: "+", l: l, r: r}
		case p.accept("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &binNode{op: "-", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &binNode{op: "*", l: l, r: r}
		case p.accept("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &binNode{op: "/", l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (node, error) {
	if p.accept("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &negNode{x: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (node, error) {
	t := p.next()
	switch t.kind {
	case tokNum:
		return numNode(t.num), nil
	case tokIdent:
		name := strings.ToUpper(t.text)
		if name == "INF" || name == "INFINITY" {
			return numNode(math.Inf(1)), nil
		}
		lower := strings.ToLower(t.text)
		if p.accept("(") {
			var args []node
			if !p.accept(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.accept(")") {
						break
					}
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
			}
			if len(args) == 0 {
				return nil, fmt.Errorf("policyexpr: %s() needs arguments", lower)
			}
			switch lower {
			case "max", "min":
			case "ceil", "floor":
				if len(args) != 1 {
					return nil, fmt.Errorf("policyexpr: %s() takes one argument", lower)
				}
			default:
				return nil, fmt.Errorf("policyexpr: unknown function %q", t.text)
			}
			return &callNode{fn: lower, args: args}, nil
		}
		return varNode(name), nil
	case tokOp:
		if t.text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("policyexpr: unexpected token %q in %q", t.text, p.src)
}
