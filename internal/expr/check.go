package expr

import (
	"fmt"

	"dynamicmr/internal/data"
)

// Validate checks that e is a predicate over schema that can fail at
// run time only by dividing by zero. Every column it references must
// exist. Under the kinds the schema declares, every comparison, BETWEEN
// and IN must compare numeric with numeric (INT with FLOAT included),
// STRING with STRING or BOOL with BOOL; every operand of arithmetic and
// negation must be numeric; and every operand of AND, OR and NOT, and e
// itself, must be boolean. NULL passes wherever its run-time rule lets
// it (it compares false and tests false), and a column declared
// data.KindAny passes unchecked.
func Validate(e Expr, schema *data.Schema) error {
	k, err := kindOf(e, schema)
	if err == nil && !boolean(k) {
		err = fmt.Errorf("expr: %s value used as boolean in %s", k, e)
	}
	return err
}

// kindOf returns the kind of e's value over schema (data.KindAny when
// it depends on a column of no declared kind), or the error of the
// first operator whose operand kinds it rejects.
func kindOf(e Expr, schema *data.Schema) (data.Kind, error) {
	switch x := e.(type) {
	case *Column:
		i, ok := schema.Index(x.Name)
		if !ok {
			return data.KindAny, fmt.Errorf("expr: column %q not in schema", x.Name)
		}
		return schema.Kind(i), nil
	case *Literal:
		return x.Val.Kind(), nil
	case *Neg:
		k, err := kindOf(x.X, schema)
		if err == nil && !numeric(k) {
			err = fmt.Errorf("expr: cannot negate %s in %s", k, e)
		}
		return k, err
	case *Not:
		return data.KindBool, booleans(e, schema, x.X)
	case *Binary:
		switch x.Op {
		case OpAnd, OpOr:
			return data.KindBool, booleans(e, schema, x.L, x.R)
		case OpAdd, OpSub, OpMul, OpDiv:
			l, r, err := kinds(schema, x.L, x.R)
			switch {
			case err != nil:
				return data.KindAny, err
			case !numeric(l) || !numeric(r):
				return data.KindAny, fmt.Errorf("expr: arithmetic on %s and %s in %s", l, r, e)
			case l == data.KindAny || r == data.KindAny:
				return data.KindAny, nil
			case l == data.KindInt && r == data.KindInt && x.Op != OpDiv:
				return data.KindInt, nil
			}
			return data.KindFloat, nil
		}
		return data.KindBool, compares(e, schema, x.L, x.R)
	case *Between:
		return data.KindBool, compares(e, schema, x.X, x.Lo, x.Hi)
	case *In:
		return data.KindBool, compares(e, schema, x.X, x.List...)
	case *Like:
		_, err := kindOf(x.X, schema)
		return data.KindBool, err
	}
	return data.KindAny, fmt.Errorf("expr: cannot type %T", e)
}

// kinds returns the kinds of two operands.
func kinds(schema *data.Schema, a, b Expr) (data.Kind, data.Kind, error) {
	ka, err := kindOf(a, schema)
	if err != nil {
		return ka, data.KindAny, err
	}
	kb, err := kindOf(b, schema)
	return ka, kb, err
}

// booleans checks that every operand of node is boolean.
func booleans(node Expr, schema *data.Schema, operands ...Expr) error {
	for _, o := range operands {
		k, err := kindOf(o, schema)
		if err != nil {
			return err
		}
		if !boolean(k) {
			return fmt.Errorf("expr: %s value used as boolean in %s", k, node)
		}
	}
	return nil
}

// compares checks that the first operand of node compares with each
// of the others.
func compares(node Expr, schema *data.Schema, x Expr, others ...Expr) error {
	kx, err := kindOf(x, schema)
	if err != nil {
		return err
	}
	for _, o := range others {
		k, err := kindOf(o, schema)
		if err != nil {
			return err
		}
		if !ordered(kx, k) {
			return fmt.Errorf("expr: cannot compare %s with %s in %s", kx, k, node)
		}
	}
	return nil
}

// numeric reports whether a value of kind k may be numeric.
func numeric(k data.Kind) bool {
	return k == data.KindInt || k == data.KindFloat || k == data.KindAny
}

// boolean reports whether a value of kind k may be tested as a boolean.
func boolean(k data.Kind) bool {
	return k == data.KindBool || k == data.KindNull || k == data.KindAny
}

// ordered reports whether values of kinds a and b may be compared
// without error: NULL compares (false) with anything.
func ordered(a, b data.Kind) bool {
	switch {
	case a == data.KindAny || b == data.KindAny || a == data.KindNull || b == data.KindNull:
		return true
	case numeric(a) && numeric(b):
		return true
	}
	return a == b
}
