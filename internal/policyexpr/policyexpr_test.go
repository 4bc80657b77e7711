package policyexpr

import (
	"math"
	"testing"
	"testing/quick"
)

func compile(t *testing.T, src string) *Expr {
	t.Helper()
	e, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return e
}

func eval(t *testing.T, src string, env Env) float64 {
	t.Helper()
	v, err := compile(t, src).Eval(env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := map[string]float64{
		"1+2":         3,
		"2*3+4":       10,
		"2+3*4":       14,
		"(2+3)*4":     20,
		"10/4":        2.5,
		"7-2-1":       4,
		"-5+2":        -3,
		"--4":         4,
		"0.5*40":      20,
		"1e2":         100,
		"2*(3+(4-1))": 12,
	}
	for src, want := range cases {
		if got := eval(t, src, nil); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestVariables(t *testing.T) {
	env := Env{"AS": 12, "TS": 40}
	if got := eval(t, "0.5*AS", env); got != 6 {
		t.Errorf("0.5*AS = %v", got)
	}
	if got := eval(t, "as + ts", env); got != 52 {
		t.Errorf("case-insensitive vars = %v", got)
	}
	e := compile(t, "MISSING + 1")
	if _, err := e.Eval(env); err == nil {
		t.Error("unknown variable did not error")
	}
}

func TestFunctions(t *testing.T) {
	env := Env{"AS": 12, "TS": 40}
	cases := map[string]float64{
		"max(0.5*TS, AS)": 20,
		"max(1, 2, 3)":    3,
		"min(0.5*TS, AS)": 12,
		"ceil(0.1*AS)":    2,
		"floor(0.9*AS)":   10,
		"max(AS, TS) + 1": 41,
	}
	for src, want := range cases {
		if got := eval(t, src, env); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestTernaryAndComparisons(t *testing.T) {
	cases := []struct {
		src  string
		env  Env
		want float64
	}{
		{"AS > 0 ? 0.5*AS : 0.2*TS", Env{"AS": 10, "TS": 40}, 5},
		{"AS > 0 ? 0.5*AS : 0.2*TS", Env{"AS": 0, "TS": 40}, 8},
		{"AS >= 10 ? 1 : 0", Env{"AS": 10}, 1},
		{"AS <= 9 ? 1 : 0", Env{"AS": 10}, 0},
		{"AS == 10 ? 7 : 8", Env{"AS": 10}, 7},
		{"AS != 10 ? 7 : 8", Env{"AS": 10}, 8},
		{"AS < 5 ? 1 : AS < 15 ? 2 : 3", Env{"AS": 10}, 2}, // nested
	}
	for _, c := range cases {
		if got := eval(t, c.src, c.env); got != c.want {
			t.Errorf("%q with %v = %v, want %v", c.src, c.env, got, c.want)
		}
	}
}

func TestInfinity(t *testing.T) {
	if got := eval(t, "inf", nil); !math.IsInf(got, 1) {
		t.Errorf("inf = %v", got)
	}
	if got := eval(t, "INFINITY", nil); !math.IsInf(got, 1) {
		t.Errorf("INFINITY = %v", got)
	}
	if got := eval(t, "min(inf, 5)", nil); got != 5 {
		t.Errorf("min(inf,5) = %v", got)
	}
}

func TestTableIFormulas(t *testing.T) {
	// The exact Table I grab limits under representative loads.
	type tc struct {
		expr   string
		as, ts float64
		want   float64
	}
	cases := []tc{
		{"inf", 0, 40, math.Inf(1)},              // Hadoop
		{"max(0.5*TS, AS)", 40, 40, 40},          // HA idle cluster
		{"max(0.5*TS, AS)", 4, 40, 20},           // HA loaded
		{"AS > 0 ? 0.5*AS : 0.2*TS", 40, 40, 20}, // MA idle
		{"AS > 0 ? 0.5*AS : 0.2*TS", 0, 40, 8},   // MA saturated
		{"AS > 0 ? 0.2*AS : 0.1*TS", 40, 40, 8},  // LA idle
		{"AS > 0 ? 0.2*AS : 0.1*TS", 0, 40, 4},   // LA saturated
		{"0.1*AS", 40, 40, 4},                    // C idle
		{"0.1*AS", 0, 40, 0},                     // C saturated
	}
	for _, c := range cases {
		got := eval(t, c.expr, Env{"AS": c.as, "TS": c.ts})
		if got != c.want && !(math.IsInf(got, 1) && math.IsInf(c.want, 1)) {
			t.Errorf("%q AS=%v TS=%v = %v, want %v", c.expr, c.as, c.ts, got, c.want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bads := []string{
		"", "1+", "(1", "max(", "max()", "1 ? 2", "foo(1)", "ceil(1,2)",
		"@", "1 2", "AS >< TS",
	}
	for _, src := range bads {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) accepted", src)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	e := compile(t, "1/AS")
	if _, err := e.Eval(Env{"AS": 0}); err == nil {
		t.Error("division by zero did not error")
	}
}

func TestStringRoundTrip(t *testing.T) {
	src := "max(0.5*TS, AS)"
	e := compile(t, src)
	if e.String() != src {
		t.Fatalf("String = %q", e.String())
	}
}

// Property: compiled constant expressions over two variables evaluate
// without error for any non-negative env, and repeated evaluation is
// stable.
func TestEvalStabilityProperty(t *testing.T) {
	e := compile(t, "AS > 0 ? 0.5*AS : 0.2*TS")
	f := func(as, ts uint16) bool {
		env := Env{"AS": float64(as), "TS": float64(ts)}
		a, err1 := e.Eval(env)
		b, err2 := e.Eval(env)
		return err1 == nil && err2 == nil && a == b && a >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
