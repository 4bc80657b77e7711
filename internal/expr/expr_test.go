package expr

import (
	"sort"
	"strings"
	"testing"

	"dynamicmr/internal/data"
)

var testSchema = data.NewSchema("A", "B", "S", "F")

func rec(a, b int64, s string, f float64) data.Record {
	return data.NewRecord(testSchema, []data.Value{
		data.Int(a), data.Int(b), data.Str(s), data.Float(f),
	})
}

func col(n string) Expr               { return &Column{Name: n} }
func lint(v int64) Expr               { return &Literal{Val: data.Int(v)} }
func lfloat(v float64) Expr           { return &Literal{Val: data.Float(v)} }
func lstr(v string) Expr              { return &Literal{Val: data.Str(v)} }
func bin(op BinaryOp, l, r Expr) Expr { return &Binary{Op: op, L: l, R: r} }

func evalB(t *testing.T, e Expr, r data.Record) bool {
	t.Helper()
	b, err := EvalBool(e, r)
	if err != nil {
		t.Fatalf("EvalBool(%s): %v", e, err)
	}
	return b
}

func TestComparisons(t *testing.T) {
	r := rec(5, 10, "RAIL", 0.05)
	cases := []struct {
		e    Expr
		want bool
	}{
		{bin(OpEq, col("a"), lint(5)), true},
		{bin(OpEq, col("a"), lint(6)), false},
		{bin(OpNe, col("a"), lint(6)), true},
		{bin(OpLt, col("a"), col("b")), true},
		{bin(OpLe, col("a"), lint(5)), true},
		{bin(OpGt, col("b"), col("a")), true},
		{bin(OpGe, col("a"), lint(6)), false},
		{bin(OpEq, col("s"), lstr("RAIL")), true},
		{bin(OpEq, col("s"), lstr("AIR")), false},
		{bin(OpEq, col("f"), lfloat(0.05)), true},
		{bin(OpLt, col("f"), lint(1)), true},
	}
	for _, c := range cases {
		if got := evalB(t, c.e, r); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestIntComparisonsAreExact(t *testing.T) {
	r := rec(1<<53+1, 0, "", 0)
	for _, e := range []Expr{bin(OpGt, col("A"), lint(1<<53)), bin(OpNe, col("A"), lint(1<<53))} {
		if !evalB(t, e, r) {
			t.Errorf("%s is false for A = 2^53+1", e)
		}
	}
}

func TestBooleanConnectives(t *testing.T) {
	r := rec(5, 10, "RAIL", 0.05)
	tr := bin(OpEq, lint(1), lint(1))
	fa := bin(OpEq, lint(1), lint(2))
	cases := []struct {
		e    Expr
		want bool
	}{
		{bin(OpAnd, tr, tr), true},
		{bin(OpAnd, tr, fa), false},
		{bin(OpOr, fa, tr), true},
		{bin(OpOr, fa, fa), false},
		{&Not{X: fa}, true},
		{&Not{X: tr}, false},
	}
	for _, c := range cases {
		if got := evalB(t, c.e, r); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	r := rec(1, 2, "x", 0)
	// Right operand would error (string arithmetic) if evaluated.
	bad := bin(OpAdd, col("s"), lint(1))
	e := bin(OpAnd, bin(OpEq, lint(1), lint(2)), bad)
	if evalB(t, e, r) {
		t.Fatal("AND short-circuit returned true")
	}
	e = bin(OpOr, bin(OpEq, lint(1), lint(1)), bad)
	if !evalB(t, e, r) {
		t.Fatal("OR short-circuit returned false")
	}
}

func TestArithmetic(t *testing.T) {
	r := rec(6, 4, "", 0.5)
	cases := []struct {
		e    Expr
		want data.Value
	}{
		{bin(OpAdd, col("a"), col("b")), data.Int(10)},
		{bin(OpSub, col("a"), col("b")), data.Int(2)},
		{bin(OpMul, col("a"), col("b")), data.Int(24)},
		{bin(OpDiv, col("a"), col("b")), data.Float(1.5)},
		{bin(OpAdd, col("a"), col("f")), data.Float(6.5)},
		{&Neg{X: col("a")}, data.Int(-6)},
		{&Neg{X: col("f")}, data.Float(-0.5)},
	}
	for _, c := range cases {
		v, err := c.e.Eval(r)
		if err != nil {
			t.Fatalf("%s: %v", c.e, err)
		}
		if !data.Equal(v, c.want) {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	r := rec(1, 0, "x", 0)
	if _, err := bin(OpDiv, col("a"), col("b")).Eval(r); err == nil {
		t.Error("division by zero did not error")
	}
	if _, err := bin(OpAdd, col("s"), lint(1)).Eval(r); err == nil {
		t.Error("string arithmetic did not error")
	}
	if _, err := (&Neg{X: col("s")}).Eval(r); err == nil {
		t.Error("string negation did not error")
	}
}

func TestUnknownColumn(t *testing.T) {
	r := rec(1, 2, "x", 0)
	if _, err := col("nope").Eval(r); err == nil {
		t.Fatal("unknown column did not error")
	}
}

func TestBetween(t *testing.T) {
	r := rec(5, 0, "1994-06-15", 0)
	e := &Between{X: col("a"), Lo: lint(1), Hi: lint(10)}
	if !evalB(t, e, r) {
		t.Error("5 BETWEEN 1 AND 10 = false")
	}
	e = &Between{X: col("a"), Lo: lint(6), Hi: lint(10)}
	if evalB(t, e, r) {
		t.Error("5 BETWEEN 6 AND 10 = true")
	}
	// Date strings compare lexicographically.
	e = &Between{X: col("s"), Lo: lstr("1994-01-01"), Hi: lstr("1994-12-31")}
	if !evalB(t, e, r) {
		t.Error("date BETWEEN failed")
	}
	// Bounds are inclusive.
	e = &Between{X: col("a"), Lo: lint(5), Hi: lint(5)}
	if !evalB(t, e, r) {
		t.Error("BETWEEN not inclusive")
	}
}

func TestIn(t *testing.T) {
	r := rec(5, 0, "RAIL", 0)
	e := &In{X: col("s"), List: []Expr{lstr("AIR"), lstr("RAIL")}}
	if !evalB(t, e, r) {
		t.Error("IN membership failed")
	}
	e = &In{X: col("s"), List: []Expr{lstr("AIR"), lstr("SHIP")}}
	if evalB(t, e, r) {
		t.Error("IN non-membership failed")
	}
	e = &In{X: col("a"), List: []Expr{lint(1), lfloat(5.0)}}
	if !evalB(t, e, r) {
		t.Error("IN cross-kind numeric equality failed")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"RAIL", "RAIL", true},
		{"RAIL", "RAILX", false},
		{"RA%", "RAIL", true},
		{"%IL", "RAIL", true},
		{"%AI%", "RAIL", true},
		{"R_IL", "RAIL", true},
		{"R_IL", "RAAIL", false},
		{"%", "", true},
		{"%%", "anything", true},
		{"a%b%c", "aXXbYYc", true},
		{"a%b%c", "aXXbYY", false},
		{"_", "", false},
		{"", "", true},
		{"%foxes%", "quickly foxes haggle", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
	r := rec(0, 0, "REG AIR", 0)
	if !evalB(t, &Like{X: col("s"), Pattern: "REG%"}, r) {
		t.Error("Like node failed")
	}
	// LIKE on non-string is false, not an error.
	if evalB(t, &Like{X: col("a"), Pattern: "%"}, r) {
		t.Error("Like on int should be false")
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	s := data.NewSchema("x")
	r := data.NewRecord(s, []data.Value{data.Null()})
	e := bin(OpEq, &Column{Name: "x"}, lint(1))
	if b, err := EvalBool(e, r); err != nil || b {
		t.Fatalf("NULL = 1 evaluated to %v, %v", b, err)
	}
	e = &Between{X: &Column{Name: "x"}, Lo: lint(0), Hi: lint(2)}
	if b, _ := EvalBool(e, r); b {
		t.Fatal("NULL BETWEEN should be false")
	}
}

func TestNonBooleanPredicateErrors(t *testing.T) {
	r := rec(1, 2, "x", 0)
	if _, err := EvalBool(col("a"), r); err == nil {
		t.Fatal("integer used as predicate did not error")
	}
}

func TestStringRendering(t *testing.T) {
	e := bin(OpAnd,
		bin(OpGt, col("L_QUANTITY"), lint(50)),
		bin(OpEq, col("L_SHIPMODE"), lstr("RAIL")))
	want := "((L_QUANTITY > 50) AND (L_SHIPMODE = 'RAIL'))"
	if e.String() != want {
		t.Fatalf("String = %q, want %q", e.String(), want)
	}
	// Quote escaping.
	l := &Literal{Val: data.Str("o'neil")}
	if l.String() != "'o''neil'" {
		t.Fatalf("quoted literal = %q", l.String())
	}
}

func TestStringIsStableFingerprint(t *testing.T) {
	mk := func() Expr {
		return bin(OpOr,
			&Between{X: col("f"), Lo: lfloat(0.1), Hi: lfloat(0.2)},
			&In{X: col("s"), List: []Expr{lstr("A"), lstr("B")}})
	}
	if mk().String() != mk().String() {
		t.Fatal("identical trees render differently")
	}
}

func TestColumns(t *testing.T) {
	e := bin(OpAnd,
		bin(OpGt, bin(OpMul, col("a"), col("f")), lint(1)),
		&Like{X: col("s"), Pattern: "%"})
	got := Columns(e)
	sort.Strings(got)
	want := "A,F,S"
	if strings.Join(got, ",") != want {
		t.Fatalf("Columns = %v, want %s", got, want)
	}
}

func TestValidate(t *testing.T) {
	e := bin(OpEq, col("a"), lint(1))
	if err := Validate(e, testSchema); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	e = bin(OpEq, col("missing"), lint(1))
	if err := Validate(e, testSchema); err == nil {
		t.Fatal("Validate accepted unknown column")
	}
}

func TestBindKeepsFingerprintAndResults(t *testing.T) {
	e := bin(OpOr,
		&Between{X: col("a"), Lo: lint(1), Hi: &Neg{X: lint(-9)}},
		bin(OpAnd, &Not{X: &In{X: col("s"), List: []Expr{lstr("AIR"), lstr("RAIL")}}},
			&Like{X: col("S"), Pattern: "%O%"}))
	b, err := Bind(e, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != e.String() {
		t.Fatalf("Bind moved the fingerprint: %s -> %s", e, b)
	}
	if got, want := strings.Join(sorted(Columns(b)), ","), strings.Join(sorted(Columns(e)), ","); got != want {
		t.Fatalf("Columns of bound tree %s, want %s", got, want)
	}
	for _, r := range []data.Record{rec(5, 0, "SHIP", 0), rec(20, 0, "RAIL", 0), rec(0, 0, "TRUCK", 0), rec(0, 0, "AIR", 0)} {
		if evalB(t, b, r) != evalB(t, e, r) {
			t.Fatalf("bound and unbound disagree on %s", r)
		}
	}
	if _, err := Bind(bin(OpEq, col("nope"), lint(1)), testSchema); err == nil {
		t.Fatal("Bind accepted an unknown column")
	}
}

func sorted(s []string) []string { sort.Strings(s); return s }

func TestScanFilterFallbackOnPlainSource(t *testing.T) {
	src := data.NewSliceSource(testSchema, []data.Record{
		rec(1, 0, "A", 0), rec(7, 0, "B", 0), rec(9, 0, "C", 0), rec(8, 0, "D", 0),
	})
	var got []string
	err := ScanFilter(src, bin(OpGt, col("a"), lint(5)), func(r data.Record) bool {
		got = append(got, r.MustGet("S").AsString())
		return len(got) < 2
	})
	if err != nil || strings.Join(got, "") != "BC" {
		t.Fatalf("ScanFilter = %v, %v; want [B C]", got, err)
	}
	if err := ScanFilter(src, col("s"), func(data.Record) bool { return true }); err == nil {
		t.Fatal("non-boolean predicate accepted")
	}
}
