package expr

import "dynamicmr/internal/data"

// test is a compiled predicate: for every record it returns the result
// and error that EvalBool returns for the tree it was compiled from. On
// an error the result is false, as EvalBool's is.
type test func(data.Record) (bool, error)

// Outcomes of a three-way comparison, as bits, so a comparison operator
// is the set of outcomes it accepts.
const (
	less uint8 = 1 << iota
	equal
	greater
)

// accepts maps each comparison operator to the outcomes it accepts.
var accepts = map[BinaryOp]uint8{
	OpEq: equal, OpNe: less | greater,
	OpLt: less, OpLe: less | equal,
	OpGt: greater, OpGe: greater | equal,
}

// mirror swaps less and greater, turning lit OP col into col OP' lit.
func mirror(set uint8) uint8 { return set&equal | set&less<<2 | set&greater>>2 }

// order compares two values of one kind as data.Compare does: neither
// less nor greater is equal, so a float NaN compares equal to
// everything.
func order[T int64 | float64 | string](a, b T) uint8 {
	switch {
	case a < b:
		return less
	case a > b:
		return greater
	}
	return equal
}

// number is a numeric literal ready to be compared with column values.
type number struct {
	isInt bool
	i     int64
	f     float64
}

func newNumber(v data.Value) number {
	return number{isInt: v.Kind() == data.KindInt, i: v.AsInt(), f: v.AsFloat()}
}

// order compares the numeric value v with n as data.Compare(v, n) does:
// two INTs as int64, any other pair as float64.
func (n number) order(v data.Value) uint8 {
	if n.isInt && v.Kind() == data.KindInt {
		return order(v.AsInt(), n.i)
	}
	return order(v.AsFloat(), n.f)
}

// literal returns the value of a constant operand. A Neg of a numeric
// literal counts, since that is how a negative number can be spelled;
// it is evaluated once, here, through its own Eval.
func literal(e Expr) (data.Value, bool) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, true
	case *Neg:
		if v, ok := literal(x.X); ok && v.IsNumeric() {
			nv, err := x.Eval(data.Record{})
			return nv, err == nil
		}
	}
	return data.Null(), false
}

// columnLiteral reports whether a is a bound column and b a literal.
func columnLiteral(a, b Expr) (int, data.Value, bool) {
	c, ok := a.(*BoundColumn)
	if !ok {
		return 0, data.Null(), false
	}
	v, ok := literal(b)
	return c.Index, v, ok
}

// compile turns a bound predicate into a test that, for every record,
// returns what EvalBool(e, rec) returns, error text included, without
// allocating. It specialises a column compared with a literal, in
// either order, under = != < <= > >=; BETWEEN with literal bounds; and
// AND, OR and NOT. A specialised comparison compares numeric with
// numeric and string with string in place, by data.Compare's rules;
// every other pair of kinds, NULL included (which compares false), and
// every other node are tested through EvalBool on that node.
func compile(e Expr) test {
	switch x := e.(type) {
	case *Binary:
		if x.Op == OpAnd || x.Op == OpOr {
			l, r := compile(x.L), compile(x.R)
			// AND stops at a false left operand, OR at a true one.
			stop := x.Op == OpOr
			return func(rec data.Record) (bool, error) {
				b, err := l(rec)
				if err != nil || b == stop {
					return b, err
				}
				return r(rec)
			}
		}
		if set, ok := accepts[x.Op]; ok {
			if c, v, ok := columnLiteral(x.L, x.R); ok {
				return compare(e, c, set, v)
			}
			if c, v, ok := columnLiteral(x.R, x.L); ok {
				return compare(e, c, mirror(set), v)
			}
		}
	case *Not:
		t := compile(x.X)
		return func(rec data.Record) (bool, error) {
			b, err := t(rec)
			if err != nil {
				return false, err
			}
			return !b, nil
		}
	case *Between:
		if c, ok := x.X.(*BoundColumn); ok {
			lo, okLo := literal(x.Lo)
			hi, okHi := literal(x.Hi)
			if okLo && okHi {
				return between(e, c.Index, lo, hi)
			}
		}
	}
	return interpret(e)
}

// interpret is the test of a node compile does not specialise.
func interpret(e Expr) test {
	return func(rec data.Record) (bool, error) { return EvalBool(e, rec) }
}

// compare tests column col against literal v, accepting the outcomes in
// set; node is the comparison it replaces.
func compare(node Expr, col int, set uint8, v data.Value) test {
	switch v.Kind() {
	case data.KindInt, data.KindFloat:
		n := newNumber(v)
		return func(rec data.Record) (bool, error) {
			if x := rec.At(col); x.IsNumeric() {
				return set&n.order(x) != 0, nil
			}
			return EvalBool(node, rec)
		}
	case data.KindString:
		s := v.AsString()
		return func(rec data.Record) (bool, error) {
			if x := rec.At(col); x.Kind() == data.KindString {
				return set&order(x.AsString(), s) != 0, nil
			}
			return EvalBool(node, rec)
		}
	}
	return interpret(node)
}

// between tests lo <= column col <= hi; node is the BETWEEN it replaces.
func between(node Expr, col int, lo, hi data.Value) test {
	switch {
	case lo.IsNumeric() && hi.IsNumeric():
		l, h := newNumber(lo), newNumber(hi)
		return func(rec data.Record) (bool, error) {
			if x := rec.At(col); x.IsNumeric() {
				return l.order(x) != less && h.order(x) != greater, nil
			}
			return EvalBool(node, rec)
		}
	case lo.Kind() == data.KindString && hi.Kind() == data.KindString:
		l, h := lo.AsString(), hi.AsString()
		return func(rec data.Record) (bool, error) {
			if x := rec.At(col); x.Kind() == data.KindString {
				s := x.AsString()
				return order(s, l) != less && order(s, h) != greater, nil
			}
			return EvalBool(node, rec)
		}
	}
	return interpret(node)
}
