// Package expr defines the expression AST shared by the mini-Hive query
// layer and the dataset planner: column references, literals, arithmetic,
// comparisons, boolean connectives, BETWEEN, IN and LIKE, with an
// interpreter over data.Record rows.
package expr

import (
	"fmt"
	"strings"

	"dynamicmr/internal/data"
)

// Expr is a node of the expression tree. Implementations are immutable
// and safe for concurrent evaluation.
type Expr interface {
	// Eval computes the expression's value for a record.
	Eval(rec data.Record) (data.Value, error)
	// String renders the expression in re-parseable SQL syntax; two
	// structurally identical expressions render identically, so the
	// string doubles as a fingerprint.
	String() string
}

// Column references a record field by (case-insensitive) name.
type Column struct{ Name string }

// Eval implements Expr.
func (c *Column) Eval(rec data.Record) (data.Value, error) {
	v, ok := rec.Get(c.Name)
	if !ok {
		return data.Null(), fmt.Errorf("expr: unknown column %q", c.Name)
	}
	return v, nil
}

// String implements Expr.
func (c *Column) String() string { return strings.ToUpper(c.Name) }

// BoundColumn is a Column resolved to its position in a schema (see
// Bind): it reads the field by index instead of by name. It renders
// exactly as the Column it replaces, so binding never moves a
// fingerprint.
type BoundColumn struct {
	Name  string
	Index int
}

// Eval implements Expr. The record must have the schema the column was
// bound against.
func (c *BoundColumn) Eval(rec data.Record) (data.Value, error) { return rec.At(c.Index), nil }

// String implements Expr.
func (c *BoundColumn) String() string { return strings.ToUpper(c.Name) }

// Literal is a constant value.
type Literal struct{ Val data.Value }

// Eval implements Expr.
func (l *Literal) Eval(data.Record) (data.Value, error) { return l.Val, nil }

// String implements Expr.
func (l *Literal) String() string {
	if l.Val.Kind() == data.KindString {
		return "'" + strings.ReplaceAll(l.Val.AsString(), "'", "''") + "'"
	}
	return l.Val.String()
}

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators, in no particular precedence order (precedence is a
// parser concern).
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[BinaryOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the operator's SQL spelling.
func (op BinaryOp) String() string { return opNames[op] }

// Binary applies a binary operator to two sub-expressions.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// Eval implements Expr.
func (b *Binary) Eval(rec data.Record) (data.Value, error) {
	switch b.Op {
	case OpAnd, OpOr:
		lv, err := b.L.Eval(rec)
		if err != nil {
			return data.Null(), err
		}
		lb, err := truthy(lv)
		if err != nil {
			return data.Null(), err
		}
		// Short-circuit.
		if b.Op == OpAnd && !lb {
			return data.Bool(false), nil
		}
		if b.Op == OpOr && lb {
			return data.Bool(true), nil
		}
		rv, err := b.R.Eval(rec)
		if err != nil {
			return data.Null(), err
		}
		rb, err := truthy(rv)
		if err != nil {
			return data.Null(), err
		}
		return data.Bool(rb), nil
	}

	lv, err := b.L.Eval(rec)
	if err != nil {
		return data.Null(), err
	}
	rv, err := b.R.Eval(rec)
	if err != nil {
		return data.Null(), err
	}
	switch b.Op {
	case OpAdd, OpSub, OpMul, OpDiv:
		return arith(b.Op, lv, rv)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		// SQL three-valued logic simplified: comparisons with NULL are false.
		if lv.IsNull() || rv.IsNull() {
			return data.Bool(false), nil
		}
		c, err := data.Compare(lv, rv)
		if err != nil {
			return data.Null(), err
		}
		switch b.Op {
		case OpEq:
			return data.Bool(c == 0), nil
		case OpNe:
			return data.Bool(c != 0), nil
		case OpLt:
			return data.Bool(c < 0), nil
		case OpLe:
			return data.Bool(c <= 0), nil
		case OpGt:
			return data.Bool(c > 0), nil
		default:
			return data.Bool(c >= 0), nil
		}
	}
	return data.Null(), fmt.Errorf("expr: unknown operator %v", b.Op)
}

// String implements Expr.
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

func arith(op BinaryOp, l, r data.Value) (data.Value, error) {
	if !l.IsNumeric() || !r.IsNumeric() {
		return data.Null(), fmt.Errorf("expr: arithmetic on non-numeric values %v %s %v", l, op, r)
	}
	// Integer arithmetic stays integral except division.
	if l.Kind() == data.KindInt && r.Kind() == data.KindInt && op != OpDiv {
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case OpAdd:
			return data.Int(a + b), nil
		case OpSub:
			return data.Int(a - b), nil
		case OpMul:
			return data.Int(a * b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return data.Float(a + b), nil
	case OpSub:
		return data.Float(a - b), nil
	case OpMul:
		return data.Float(a * b), nil
	case OpDiv:
		if b == 0 {
			return data.Null(), fmt.Errorf("expr: division by zero")
		}
		return data.Float(a / b), nil
	}
	return data.Null(), fmt.Errorf("expr: bad arithmetic operator %v", op)
}

// Not negates a boolean sub-expression.
type Not struct{ X Expr }

// Eval implements Expr.
func (n *Not) Eval(rec data.Record) (data.Value, error) {
	v, err := n.X.Eval(rec)
	if err != nil {
		return data.Null(), err
	}
	b, err := truthy(v)
	if err != nil {
		return data.Null(), err
	}
	return data.Bool(!b), nil
}

// String implements Expr.
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.X) }

// Neg is unary numeric negation.
type Neg struct{ X Expr }

// Eval implements Expr.
func (n *Neg) Eval(rec data.Record) (data.Value, error) {
	v, err := n.X.Eval(rec)
	if err != nil {
		return data.Null(), err
	}
	switch v.Kind() {
	case data.KindInt:
		return data.Int(-v.AsInt()), nil
	case data.KindFloat:
		return data.Float(-v.AsFloat()), nil
	default:
		return data.Null(), fmt.Errorf("expr: cannot negate %s", v.Kind())
	}
}

// String implements Expr.
func (n *Neg) String() string { return fmt.Sprintf("(-%s)", n.X) }

// Between tests Lo <= X <= Hi.
type Between struct{ X, Lo, Hi Expr }

// Eval implements Expr.
func (b *Between) Eval(rec data.Record) (data.Value, error) {
	x, err := b.X.Eval(rec)
	if err != nil {
		return data.Null(), err
	}
	lo, err := b.Lo.Eval(rec)
	if err != nil {
		return data.Null(), err
	}
	hi, err := b.Hi.Eval(rec)
	if err != nil {
		return data.Null(), err
	}
	if x.IsNull() || lo.IsNull() || hi.IsNull() {
		return data.Bool(false), nil
	}
	c1, err := data.Compare(lo, x)
	if err != nil {
		return data.Null(), err
	}
	c2, err := data.Compare(x, hi)
	if err != nil {
		return data.Null(), err
	}
	return data.Bool(c1 <= 0 && c2 <= 0), nil
}

// String implements Expr.
func (b *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.X, b.Lo, b.Hi)
}

// In tests membership of X in a literal list.
type In struct {
	X    Expr
	List []Expr
}

// Eval implements Expr.
func (in *In) Eval(rec data.Record) (data.Value, error) {
	x, err := in.X.Eval(rec)
	if err != nil {
		return data.Null(), err
	}
	for _, e := range in.List {
		v, err := e.Eval(rec)
		if err != nil {
			return data.Null(), err
		}
		if data.Equal(x, v) {
			return data.Bool(true), nil
		}
	}
	return data.Bool(false), nil
}

// String implements Expr.
func (in *In) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	return fmt.Sprintf("(%s IN (%s))", in.X, strings.Join(parts, ", "))
}

// Like matches X against a SQL LIKE pattern with % (any run) and _
// (any single character) wildcards.
type Like struct {
	X       Expr
	Pattern string
}

// Eval implements Expr.
func (l *Like) Eval(rec data.Record) (data.Value, error) {
	x, err := l.X.Eval(rec)
	if err != nil {
		return data.Null(), err
	}
	if x.Kind() != data.KindString {
		return data.Bool(false), nil
	}
	return data.Bool(likeMatch(l.Pattern, x.AsString())), nil
}

// String implements Expr.
func (l *Like) String() string {
	return fmt.Sprintf("(%s LIKE '%s')", l.X, strings.ReplaceAll(l.Pattern, "'", "''"))
}

// likeMatch implements LIKE with % and _ via iterative backtracking
// (the classic two-pointer glob algorithm, linear in practice).
func likeMatch(pattern, s string) bool {
	p, si := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case p < len(pattern) && (pattern[p] == '_' || pattern[p] == s[si]):
			p++
			si++
		case p < len(pattern) && pattern[p] == '%':
			star, starSi = p, si
			p++
		case star >= 0:
			starSi++
			si = starSi
			p = star + 1
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}

func truthy(v data.Value) (bool, error) {
	switch v.Kind() {
	case data.KindBool:
		return v.AsBool(), nil
	case data.KindNull:
		return false, nil
	default:
		return false, fmt.Errorf("expr: %s value used as boolean", v.Kind())
	}
}

// EvalBool evaluates e as a predicate over rec; non-boolean results are
// an error.
func EvalBool(e Expr, rec data.Record) (bool, error) {
	v, err := e.Eval(rec)
	if err != nil {
		return false, err
	}
	return truthy(v)
}

// walk calls fn on e and every sub-expression, parents first.
func walk(e Expr, fn func(Expr)) {
	fn(e)
	switch x := e.(type) {
	case *Binary:
		walk(x.L, fn)
		walk(x.R, fn)
	case *Not:
		walk(x.X, fn)
	case *Neg:
		walk(x.X, fn)
	case *Between:
		walk(x.X, fn)
		walk(x.Lo, fn)
		walk(x.Hi, fn)
	case *In:
		walk(x.X, fn)
		for _, v := range x.List {
			walk(v, fn)
		}
	case *Like:
		walk(x.X, fn)
	}
}

// Columns returns the set of column names referenced by the expression.
func Columns(e Expr) []string {
	set := map[string]bool{}
	walk(e, func(e Expr) {
		switch x := e.(type) {
		case *Column:
			set[strings.ToUpper(x.Name)] = true
		case *BoundColumn:
			set[strings.ToUpper(x.Name)] = true
		}
	})
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	return out
}

// Validate checks that every referenced column exists in the schema.
func Validate(e Expr, schema *data.Schema) error {
	for _, c := range Columns(e) {
		if !schema.Has(c) {
			return fmt.Errorf("expr: column %q not in schema", c)
		}
	}
	return nil
}

// Bind returns a copy of e with every Column replaced by a BoundColumn
// resolved against schema, so evaluation reads fields by position. The
// copy renders identically to e. It fails on a column the schema lacks
// or a node type it does not know; e itself is never modified.
func Bind(e Expr, schema *data.Schema) (Expr, error) {
	var err error
	bind := func(e Expr) Expr {
		var b Expr
		if err == nil {
			b, err = Bind(e, schema)
		}
		return b
	}
	var out Expr
	switch x := e.(type) {
	case *Column:
		i, ok := schema.Index(x.Name)
		if !ok {
			return nil, fmt.Errorf("expr: unknown column %q", x.Name)
		}
		return &BoundColumn{Name: x.Name, Index: i}, nil
	case *BoundColumn, *Literal:
		return e, nil
	case *Binary:
		out = &Binary{Op: x.Op, L: bind(x.L), R: bind(x.R)}
	case *Not:
		out = &Not{X: bind(x.X)}
	case *Neg:
		out = &Neg{X: bind(x.X)}
	case *Between:
		out = &Between{X: bind(x.X), Lo: bind(x.Lo), Hi: bind(x.Hi)}
	case *In:
		list := make([]Expr, len(x.List))
		for i, v := range x.List {
			list[i] = bind(v)
		}
		out = &In{X: bind(x.X), List: list}
	case *Like:
		out = &Like{X: bind(x.X), Pattern: x.Pattern}
	default:
		return nil, fmt.Errorf("expr: cannot bind %T", e)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScanFilter streams the records of src that satisfy pred to yield, in
// source order, until yield returns false or the records run out, and
// returns the first predicate evaluation error. It is the one predicate
// scan loop behind every filtering mapper. When pred binds against
// src's schema it is compiled once into a test that reads columns by
// position. A data.FilterSource then applies that test to the columns
// it reads before any record is built, and materialises only matches;
// any other source scans whole records and tests each. A record whose
// schema is not src's, which breaks the Source contract, and every
// record of a predicate that does not bind are evaluated by name with
// EvalBool. Output, order and errors are the same on every path.
func ScanFilter(src data.Source, pred Expr, yield func(data.Record) bool) error {
	schema := src.Schema()
	var keep test
	if bound, err := Bind(pred, schema); err == nil {
		keep = compile(bound)
		if fs, ok := src.(data.FilterSource); ok {
			var cols []int
			walk(bound, func(e Expr) {
				if c, ok := e.(*BoundColumn); ok {
					cols = append(cols, c.Index)
				}
			})
			return fs.ScanWhere(cols, keep, yield)
		}
	}
	var scanErr error
	src.Scan(func(r data.Record) bool {
		var ok bool
		var err error
		if keep != nil && r.Schema() == schema {
			ok, err = keep(r)
		} else {
			ok, err = EvalBool(pred, r)
		}
		if err != nil {
			scanErr = err
			return false
		}
		return !ok || yield(r)
	})
	return scanErr
}
