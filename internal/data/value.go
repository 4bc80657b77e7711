// Package data defines the record and value model shared by the DFS,
// the MapReduce runtime, the TPC-H generator and the mini-Hive layer:
// typed scalar values, column schemas, and flat records.
package data

import (
	"fmt"
	"math/bits"
	"strconv"
)

// Kind enumerates the scalar types a Value can hold.
type Kind uint8

const (
	// KindNull is the zero Value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit float (used for decimals such as prices).
	KindFloat
	// KindString is a UTF-8 string (also used for dates, stored
	// as "YYYY-MM-DD" so lexicographic order equals date order).
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a typed scalar. The zero value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String wraps a string.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool wraps a bool.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind returns the value's type tag.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer content; valid only for KindInt and KindBool.
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the value as a float64, converting integers.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string content; valid only for KindString.
func (v Value) AsString() string { return v.s }

// AsBool returns the boolean content; valid only for KindBool.
func (v Value) AsBool() bool { return v.i != 0 }

// IsNumeric reports whether the value is an INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String formats the value the way a text row file would store it.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "\\N"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'f', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// EncodedSize returns the number of bytes the value occupies in the
// delimited text representation used for size accounting.
func (v Value) EncodedSize() int {
	switch v.kind {
	case KindNull:
		return 2
	case KindInt:
		// Negate as uint64 so MinInt64 keeps its magnitude.
		x := uint64(v.i)
		if v.i < 0 {
			return 1 + decimalDigits(-x)
		}
		return decimalDigits(x)
	case KindFloat:
		var buf [64]byte
		return len(strconv.AppendFloat(buf[:0], v.f, 'f', -1, 64))
	case KindString:
		return len(v.s)
	case KindBool:
		if v.i != 0 {
			return 4
		}
		return 5
	default:
		return 1
	}
}

// pow10 holds 10^0 … 10^19, every power of ten a uint64 can hold.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalDigits returns the number of decimal digits in x (1 for 0) in
// constant time. A number of bit length L has floor(L·log10 2) or one
// more digits; 1233/4096 approximates log10 2 closely enough for every
// L up to 64, and one table lookup settles which.
func decimalDigits(x uint64) int {
	n := bits.Len64(x) * 1233 >> 12
	if x >= pow10[n] {
		n++
	}
	return max(n, 1)
}

// Compare orders two values: -1, 0, +1. Two INTs compare as int64; any
// other numeric pair (INT vs FLOAT allowed) compares as float64, where
// NaN compares equal to everything; strings compare lexicographically;
// NULL sorts before everything; comparing incompatible kinds returns an
// error.
func Compare(a, b Value) (int, error) {
	switch {
	case a.IsNull() && b.IsNull():
		return 0, nil
	case a.IsNull():
		return -1, nil
	case b.IsNull():
		return 1, nil
	}
	if a.kind == b.kind && (a.kind == KindInt || a.kind == KindBool) {
		// Exact for INTs: float64 would merge those beyond 2^53.
		switch {
		case a.i < b.i:
			return -1, nil
		case a.i > b.i:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1, nil
		case af > bf:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if a.kind == KindString && b.kind == KindString {
		switch {
		case a.s < b.s:
			return -1, nil
		case a.s > b.s:
			return 1, nil
		default:
			return 0, nil
		}
	}
	return 0, fmt.Errorf("data: cannot compare %s with %s", a.kind, b.kind)
}

// Equal reports deep equality with numeric cross-kind tolerance
// (Int(3) == Float(3.0)). Incomparable kinds are unequal.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}
