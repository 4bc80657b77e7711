package expr

import (
	"math"
	"math/rand"
	"testing"

	"dynamicmr/internal/data"
)

// gen draws expression trees and records from a byte string, so the
// property test (random bytes) and FuzzCompile (the fuzzer's bytes)
// share one generator. Past the end of the bytes every draw is 0.
type gen struct{ b []byte }

func (g *gen) intn(n int) int {
	if len(g.b) == 0 {
		return 0
	}
	v := int(g.b[0]) % n
	g.b = g.b[1:]
	return v
}

var (
	genSchema = data.NewSchema("A", "B", "C", "D")
	// genValues holds every kind, the float edge cases data.Compare's
	// NaN rule and signed zeros reach, and INTs around ±2^53 and the
	// int64 limits, where a float64 comparison would merge neighbours.
	genValues = []data.Value{
		data.Null(),
		data.Int(0), data.Int(1), data.Int(-1), data.Int(12), data.Int(16),
		data.Int(1 << 53), data.Int(1<<53 + 1), data.Int(-(1 << 53)), data.Int(-(1 << 53) - 1),
		data.Int(math.MinInt64), data.Int(math.MaxInt64),
		data.Float(0), data.Float(math.Copysign(0, -1)), data.Float(0.03), data.Float(12),
		data.Float(-2.5), data.Float(1 << 53), data.Float(math.NaN()),
		data.Float(math.Inf(1)), data.Float(math.Inf(-1)),
		data.Str(""), data.Str("AIR"), data.Str("RAIL"), data.Str("12"),
		data.Bool(true), data.Bool(false),
	}
	genCmpOps   = []BinaryOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	genArithOps = []BinaryOp{OpAdd, OpSub, OpMul, OpDiv}
)

func (g *gen) value() data.Value { return genValues[g.intn(len(genValues))] }

func (g *gen) record() data.Record {
	vals := make([]data.Value, genSchema.Len())
	for i := range vals {
		vals[i] = g.value()
	}
	return data.NewRecord(genSchema, vals)
}

func (g *gen) column() Expr { return &Column{Name: genSchema.Columns()[g.intn(genSchema.Len())]} }

// literal is a constant, sometimes spelled as a negation.
func (g *gen) literal() Expr {
	if g.intn(5) == 0 {
		return &Neg{X: &Literal{Val: g.value()}}
	}
	return &Literal{Val: g.value()}
}

// operand is any non-connective node.
func (g *gen) operand() Expr {
	switch g.intn(6) {
	case 0, 1:
		return g.column()
	case 2, 3:
		return g.literal()
	case 4:
		return &Neg{X: g.column()}
	default:
		return &Binary{Op: genArithOps[g.intn(len(genArithOps))], L: g.column(), R: g.literal()}
	}
}

// pred draws a tree of at most depth connectives over comparisons,
// BETWEEN, IN, LIKE and bare operands, biased to the shapes compile
// specialises: a column against a literal, in either order.
func (g *gen) pred(depth int) Expr {
	if depth > 0 {
		switch g.intn(5) {
		case 0:
			return &Binary{Op: OpAnd, L: g.pred(depth - 1), R: g.pred(depth - 1)}
		case 1:
			return &Binary{Op: OpOr, L: g.pred(depth - 1), R: g.pred(depth - 1)}
		case 2:
			return &Not{X: g.pred(depth - 1)}
		}
	}
	switch g.intn(8) {
	case 0, 1, 2:
		op := genCmpOps[g.intn(len(genCmpOps))]
		switch g.intn(3) {
		case 0:
			return &Binary{Op: op, L: g.column(), R: g.literal()}
		case 1:
			return &Binary{Op: op, L: g.literal(), R: g.column()}
		default:
			return &Binary{Op: op, L: g.operand(), R: g.operand()}
		}
	case 3, 4:
		if g.intn(3) == 0 {
			return &Between{X: g.operand(), Lo: g.operand(), Hi: g.operand()}
		}
		return &Between{X: g.column(), Lo: g.literal(), Hi: g.literal()}
	case 5:
		return &In{X: g.operand(), List: []Expr{g.literal(), g.literal()}}
	case 6:
		return &Like{X: g.operand(), Pattern: []string{"%", "A%", "_IR", "12"}[g.intn(4)]}
	default:
		return g.operand()
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkCompiled compiles e bound to genSchema and requires the test to
// agree with EvalBool, result and error text, on every record.
func checkCompiled(t *testing.T, e Expr, recs []data.Record) {
	t.Helper()
	bound, err := Bind(e, genSchema)
	if err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	test := compile(bound)
	for _, r := range recs {
		want, wantErr := EvalBool(bound, r)
		got, gotErr := test(r)
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s on %s: compiled (%v, %q), EvalBool (%v, %q)",
				e, r, got, errText(gotErr), want, errText(wantErr))
		}
	}
}

func TestCompileEqualsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	recGen := &gen{b: randBytes(256 * 4)}
	recs := make([]data.Record, 256)
	for i := range recs {
		recs[i] = recGen.record()
	}
	for i := 0; i < 1500; i++ {
		g := &gen{b: randBytes(64)}
		checkCompiled(t, g.pred(3), recs)
	}
}

func FuzzCompile(f *testing.F) {
	f.Add([]byte{3, 5, 0, 2, 8, 0, 0, 3, 7}, []byte{1, 2, 3, 4, 18, 5, 21, 25})
	f.Add([]byte{0, 3, 0, 1, 4, 12, 16, 0, 0, 4, 2, 3, 14}, []byte{4, 14, 5, 13, 18, 18, 18, 18})
	f.Fuzz(func(t *testing.T, tree, recs []byte) {
		g := &gen{b: tree}
		e := g.pred(4)
		rg := &gen{b: recs}
		var rs []data.Record
		for len(rg.b) > 0 && len(rs) < 64 {
			rs = append(rs, rg.record())
		}
		checkCompiled(t, e, rs)
	})
}

func TestCompiledTestAllocatesNothing(t *testing.T) {
	e := bin(OpAnd,
		&Between{X: col("A"), Lo: lint(12), Hi: lint(16)},
		bin(OpOr, bin(OpLe, lfloat(0.03), col("F")), &Not{X: bin(OpEq, col("S"), lstr("RAIL"))}))
	bound, err := Bind(e, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	test := compile(bound)
	r := rec(14, 0, "AIR", 0.01)
	if a := testing.AllocsPerRun(100, func() { _, _ = test(r) }); a != 0 {
		t.Fatalf("compiled test allocates %v times per record", a)
	}
}

// A record whose schema is not the source's breaks the Source contract;
// ScanFilter evaluates it by name, as EvalBool would, not by the
// positions the predicate was bound to.
func TestScanFilterEvaluatesForeignRecordsByName(t *testing.T) {
	other := data.NewSchema("S", "A")
	src := &data.FuncSource{Sch: testSchema, N: 2, Gen: func(yield func(data.Record) bool) {
		_ = yield(data.NewRecord(other, []data.Value{data.Str("X"), data.Int(9)})) &&
			yield(rec(9, 0, "Y", 0))
	}}
	var got []string
	err := ScanFilter(src, bin(OpGt, col("A"), lint(5)), func(r data.Record) bool {
		got = append(got, r.MustGet("S").AsString())
		return true
	})
	if err != nil || len(got) != 2 || got[0] != "X" || got[1] != "Y" {
		t.Fatalf("ScanFilter = %v, %v; want [X Y]", got, err)
	}
}
