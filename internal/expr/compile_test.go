package expr

import (
	"math"
	"math/rand"
	"slices"
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
	// genTyped declares A INT, B FLOAT and C STRING, so batch tests over
	// it run the typed kernels where the kinds have one and the row test
	// elsewhere, and leaves D to values of any kind.
	genTyped = data.NewTypedSchema(
		data.Field{Name: "A", Kind: data.KindInt},
		data.Field{Name: "B", Kind: data.KindFloat},
		data.Field{Name: "C", Kind: data.KindString},
		data.Field{Name: "D", Kind: data.KindAny},
	)
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

// record draws a record of schema: a value of any kind in a KindAny
// column, of the declared kind in any other.
func (g *gen) record(schema *data.Schema) data.Record {
	vals := make([]data.Value, schema.Len())
	for i := range vals {
		if k := schema.Kind(i); k != data.KindAny {
			var of []data.Value
			for _, v := range genValues {
				if v.Kind() == k {
					of = append(of, v)
				}
			}
			vals[i] = of[g.intn(len(of))]
			continue
		}
		vals[i] = g.value()
	}
	return data.NewRecord(schema, vals)
}

// selection draws an ascending subset of the rows [0, n), at most
// data.BatchRows of them: every row, or each row with probability 1/2.
func (g *gen) selection(n int) []int32 {
	var sel []int32
	all := g.intn(3) == 0
	for r := 0; r < n && len(sel) < data.BatchRows; r++ {
		if all || g.intn(2) == 0 {
			sel = append(sel, int32(r))
		}
	}
	return sel
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

// checkCompiled compiles e bound to schema and requires its row test
// to agree with EvalBool, result and error text, on every record, and
// its batch test, over each selection of the records as one batch, to
// accept exactly the rows EvalBool accepts up to the first row EvalBool
// fails on, and to return that row and its error.
func checkCompiled(t *testing.T, e Expr, schema *data.Schema, recs []data.Record, sels [][]int32) {
	t.Helper()
	bound, err := Bind(e, schema)
	if err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	n := compile(bound, schema)
	for _, r := range recs {
		want, wantErr := EvalBool(bound, r)
		got, gotErr := n.test(r)
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s on %s: compiled (%v, %q), EvalBool (%v, %q)",
				e, r, got, errText(gotErr), want, errText(wantErr))
		}
	}
	f := newScanFilter(n, schema)
	defer f.release()
	b := &vecBatch{t: t, schema: schema, recs: recs}
	for _, sel := range sels {
		var want []int32
		var wantAt int32
		var wantErr error
		for _, r := range sel {
			ok, err := EvalBool(bound, recs[r])
			if err != nil {
				wantAt, wantErr = r, err
				break
			}
			if ok {
				want = append(want, r)
			}
		}
		got := slices.Clone(sel)
		k, at, err := f.TestBatch(b, got)
		if !slices.Equal(got[:k], want) || errText(err) != errText(wantErr) || (err != nil && at != wantAt) {
			t.Fatalf("%s over %v of %v: batch test kept %v, error %q at row %d; EvalBool keeps %v, error %q at row %d",
				e, schema.Columns(), sel, got[:k], errText(err), at, want, errText(wantErr), wantAt)
		}
	}
}

// vecBatch is a data.Batch over records. Its typed accessors read only
// the columns the schema declares of their kind, and every call poisons
// all vectors before filling the rows sel lists, so a kernel that reads
// a row it was not given, keeps a vector past the batch's next call, or
// trusts a kind it was not declared, fails.
type vecBatch struct {
	t      *testing.T
	schema *data.Schema
	recs   []data.Record
	ints   [data.BatchRows]int64
	flts   [data.BatchRows]float64
}

func (b *vecBatch) poison(col int, kind data.Kind) {
	if k := b.schema.Kind(col); k != kind {
		b.t.Fatalf("batch test read column %d, declared %s, as %s", col, k, kind)
	}
	for r := range b.ints {
		b.ints[r], b.flts[r] = math.MinInt64+int64(r), math.NaN()
	}
}

func (b *vecBatch) Ints(col int, sel []int32) []int64 {
	b.poison(col, data.KindInt)
	for _, r := range sel {
		b.ints[r] = b.recs[r].At(col).AsInt()
	}
	return b.ints[:]
}

func (b *vecBatch) Floats(col int, sel []int32) []float64 {
	b.poison(col, data.KindFloat)
	for _, r := range sel {
		b.flts[r] = b.recs[r].At(col).AsFloat()
	}
	return b.flts[:]
}

func (b *vecBatch) Fill(k int32, cols []int, vals []data.Value) {
	for _, c := range cols {
		vals[c] = b.recs[k].At(c)
	}
}

// TestCompileEqualsEval checks compiled trees, over an untyped schema
// (every node tested row by row) and a typed one (the kernels), on 256
// records of values that include NaN, ±Inf, ±0, INTs around ±2^53 and
// at the int64 limits, and literals of every kind, some spelled as
// negations.
func TestCompileEqualsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for _, schema := range []*data.Schema{genSchema, genTyped} {
		recGen := &gen{b: randBytes(256 * 4)}
		recs := make([]data.Record, 256)
		for i := range recs {
			recs[i] = recGen.record(schema)
		}
		for i := 0; i < 1500; i++ {
			g := &gen{b: randBytes(64)}
			e := g.pred(3)
			sg := &gen{b: randBytes(3 * 257)}
			checkCompiled(t, e, schema, recs, [][]int32{sg.selection(256), sg.selection(256), sg.selection(256)})
		}
	}
}

func FuzzCompile(f *testing.F) {
	f.Add([]byte{3, 5, 0, 2, 8, 0, 0, 3, 7}, []byte{1, 2, 3, 4, 18, 5, 21, 25})
	f.Add([]byte{0, 3, 0, 1, 4, 12, 16, 0, 0, 4, 2, 3, 14}, []byte{4, 14, 5, 13, 18, 18, 18, 18})
	f.Fuzz(func(t *testing.T, tree, recs []byte) {
		g := &gen{b: tree}
		e := g.pred(4)
		for _, schema := range []*data.Schema{genSchema, genTyped} {
			rg := &gen{b: recs}
			var rs []data.Record
			for len(rg.b) > 0 && len(rs) < 64 {
				rs = append(rs, rg.record(schema))
			}
			sg := &gen{b: tree}
			checkCompiled(t, e, schema, rs, [][]int32{sg.selection(len(rs)), sg.selection(len(rs))})
		}
	})
}

func TestCompiledTestAllocatesNothing(t *testing.T) {
	e := bin(OpAnd,
		&Between{X: col("A"), Lo: lint(12), Hi: lint(16)},
		bin(OpOr, bin(OpLe, lfloat(0.03), col("F")), &Not{X: bin(OpEq, col("S"), lstr("RAIL"))}))
	for _, schema := range []*data.Schema{testSchema, typedTestSchema} {
		bound, err := Bind(e, schema)
		if err != nil {
			t.Fatal(err)
		}
		n := compile(bound, schema)
		r := data.NewRecord(schema, []data.Value{data.Int(14), data.Int(0), data.Str("AIR"), data.Float(0.01)})
		if a := testing.AllocsPerRun(100, func() { _, _ = n.test(r) }); a != 0 {
			t.Fatalf("%v: compiled test allocates %v times per record", schema.Columns(), a)
		}
		recs := make([]data.Record, data.BatchRows)
		for i := range recs {
			recs[i] = data.NewRecord(schema, []data.Value{
				data.Int(int64(i % 20)), data.Int(0), data.Str([]string{"AIR", "RAIL"}[i%2]), data.Float(float64(i%7) / 100)})
		}
		f := newScanFilter(n, schema)
		b := &vecBatch{t: t, schema: schema, recs: recs}
		var sel [data.BatchRows]int32
		if a := testing.AllocsPerRun(100, func() {
			for i := range sel {
				sel[i] = int32(i)
			}
			_, _, _ = f.TestBatch(b, sel[:])
		}); a != 0 {
			t.Fatalf("%v: batch test allocates %v times per batch", schema.Columns(), a)
		}
		f.release()
	}
}

// typedTestSchema is testSchema with its kinds declared.
var typedTestSchema = data.NewTypedSchema(
	data.Field{Name: "A", Kind: data.KindInt},
	data.Field{Name: "B", Kind: data.KindInt},
	data.Field{Name: "S", Kind: data.KindString},
	data.Field{Name: "F", Kind: data.KindFloat},
)

// A record whose schema is not the source's breaks the Source contract;
// ScanFilter evaluates it by name, as EvalBool would, not by the
// positions the predicate was bound to, and projects it by name too.
func TestScanFilterEvaluatesForeignRecordsByName(t *testing.T) {
	other := data.NewSchema("S", "A")
	src := &data.FuncSource{Sch: testSchema, N: 2, Gen: func(yield func(data.Record) bool) {
		_ = yield(data.NewRecord(other, []data.Value{data.Str("X"), data.Int(9)})) &&
			yield(rec(9, 0, "Y", 0))
	}}
	proj, err := testSchema.Project("S")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = ScanFilter(src, bin(OpGt, col("A"), lint(5)), proj, func(r data.Record) bool {
		if r.Schema() != proj || r.Len() != 1 {
			t.Fatalf("yielded %v with columns %v, want the projection %v", r, r.Schema().Columns(), proj.Columns())
		}
		got = append(got, r.At(0).AsString())
		return true
	})
	if err != nil || len(got) != 2 || got[0] != "X" || got[1] != "Y" {
		t.Fatalf("ScanFilter = %v, %v; want [X Y]", got, err)
	}
}
