package data

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Int(7), KindInt},
		{Float(2.5), KindFloat},
		{Str("x"), KindString},
		{Bool(true), KindBool},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind() = %v, want %v", c.v.Kind(), c.kind)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(-42).AsInt() != -42 {
		t.Error("AsInt round-trip failed")
	}
	if Float(1.5).AsFloat() != 1.5 {
		t.Error("AsFloat round-trip failed")
	}
	if Int(3).AsFloat() != 3.0 {
		t.Error("int AsFloat conversion failed")
	}
	if Str("abc").AsString() != "abc" {
		t.Error("AsString round-trip failed")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("AsBool round-trip failed")
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misreported")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(123), "123"},
		{Int(-5), "-5"},
		{Float(0.05), "0.05"},
		{Str("RAIL"), "RAIL"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Null(), "\\N"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestEncodedSizeIntProperty(t *testing.T) {
	f := func(x int64) bool {
		v := Int(x)
		return v.EncodedSize() == len(v.String())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// EncodedSize must agree with the text form for every kind — ints at
// every digit-count boundary with both signs and the int64 extremes
// included — and must not allocate.
func TestEncodedSizeMatchesString(t *testing.T) {
	vals := []Value{Null(), Bool(true), Bool(false), Str(""), Str("hello"), Float(3.14),
		Int(math.MinInt64), Int(math.MaxInt64), Int(math.MinInt64 + 1),
		Float(0), Float(-0.5), Float(1e21), Float(123456.789), Float(math.SmallestNonzeroFloat64)}
	for p := int64(1); ; p *= 10 {
		for _, x := range []int64{p - 1, p, p + 1} {
			vals = append(vals, Int(x), Int(-x))
		}
		if p > math.MaxInt64/10 {
			break
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vals = append(vals, Int(int64(rng.Uint64())), Int(rng.Int63n(1<<uint(rng.Intn(62)+1))),
			Float(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(12)-4))))
	}
	for _, v := range vals {
		if got, want := v.EncodedSize(), len(v.String()); got != want {
			t.Errorf("%s %q: EncodedSize = %d, len(String) = %d", v.Kind(), v.String(), got, want)
		}
	}
	for _, v := range []Value{Null(), Bool(true), Str("abc"), Int(math.MinInt64), Int(-42), Float(-1234.5678)} {
		if a := testing.AllocsPerRun(100, func() { _ = v.EncodedSize() }); a != 0 {
			t.Errorf("%s %q: EncodedSize allocates %v times", v.Kind(), v.String(), a)
		}
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	c, err := Compare(Int(3), Float(3.0))
	if err != nil || c != 0 {
		t.Fatalf("Compare(Int 3, Float 3.0) = %d, %v", c, err)
	}
	c, _ = Compare(Int(2), Float(2.5))
	if c != -1 {
		t.Fatalf("Compare(2, 2.5) = %d, want -1", c)
	}
	c, _ = Compare(Float(5), Int(4))
	if c != 1 {
		t.Fatalf("Compare(5.0, 4) = %d, want 1", c)
	}
}

// Two INTs compare as int64: float64 would merge neighbours beyond 2^53
// and at the int64 limits. INT against FLOAT still compares as float64.
func TestCompareIntsExactly(t *testing.T) {
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{Int(1<<53 + 1), Int(1 << 53), 1},
		{Int(1 << 53), Int(1<<53 + 1), -1},
		{Int(-(1 << 53) - 1), Int(-(1 << 53)), -1},
		{Int(math.MinInt64), Int(math.MinInt64 + 1), -1},
		{Int(math.MaxInt64), Int(math.MaxInt64 - 1), 1},
		{Int(math.MinInt64), Int(math.MaxInt64), -1},
		{Int(math.MaxInt64), Int(math.MaxInt64), 0},
		{Int(1<<53 + 1), Float(1 << 53), 0},
	} {
		if got, err := Compare(c.a, c.b); err != nil || got != c.want {
			t.Errorf("Compare(%s %v, %s %v) = %d, %v; want %d", c.a.Kind(), c.a, c.b.Kind(), c.b, got, err, c.want)
		}
	}
}

func TestCompareStrings(t *testing.T) {
	c, err := Compare(Str("1994-01-01"), Str("1995-06-30"))
	if err != nil || c != -1 {
		t.Fatalf("date string compare = %d, %v", c, err)
	}
}

func TestCompareIncompatible(t *testing.T) {
	if _, err := Compare(Int(1), Str("1")); err == nil {
		t.Fatal("expected error comparing INT with STRING")
	}
	if _, err := Compare(Bool(true), Int(1)); err == nil {
		t.Fatal("expected error comparing BOOL with INT")
	}
}

func TestNullSortsFirst(t *testing.T) {
	c, err := Compare(Null(), Int(-1000))
	if err != nil || c != -1 {
		t.Fatalf("Compare(NULL, -1000) = %d, %v", c, err)
	}
	c, _ = Compare(Str("a"), Null())
	if c != 1 {
		t.Fatalf("Compare(a, NULL) = %d, want 1", c)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("a", "B", "c")
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	i, ok := s.Index("b")
	if !ok || i != 1 {
		t.Fatalf("Index(b) = %d, %v", i, ok)
	}
	if !s.Has("C") || s.Has("d") {
		t.Fatal("Has misreported")
	}
	got := strings.Join(s.Columns(), ",")
	if got != "A,B,C" {
		t.Fatalf("Columns = %s", got)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate column did not panic")
		}
	}()
	NewSchema("x", "X")
}

func TestSchemaProject(t *testing.T) {
	s := NewSchema("a", "b", "c")
	p, err := s.Project("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Columns()[0] != "C" {
		t.Fatalf("projected schema = %v", p.Columns())
	}
	if _, err := s.Project("nope"); err == nil {
		t.Fatal("projecting unknown column did not error")
	}
}

func TestRecordAccess(t *testing.T) {
	s := NewSchema("id", "name")
	r := NewRecord(s, []Value{Int(1), Str("alice")})
	if v, ok := r.Get("NAME"); !ok || v.AsString() != "alice" {
		t.Fatalf("Get(NAME) = %v, %v", v, ok)
	}
	if _, ok := r.Get("missing"); ok {
		t.Fatal("Get(missing) should fail")
	}
	if r.At(0).AsInt() != 1 {
		t.Fatal("At(0) wrong")
	}
	if r.MustGet("id").AsInt() != 1 {
		t.Fatal("MustGet wrong")
	}
}

func TestRecordArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	NewRecord(NewSchema("a", "b"), []Value{Int(1)})
}

func TestRecordProject(t *testing.T) {
	s := NewSchema("a", "b", "c")
	r := NewRecord(s, []Value{Int(1), Int(2), Int(3)})
	p, _ := s.Project("c", "a")
	pr := r.Project(p)
	if pr.At(0).AsInt() != 3 || pr.At(1).AsInt() != 1 {
		t.Fatalf("projected record = %v", pr)
	}
}

func TestRecordStringAndSize(t *testing.T) {
	s := NewSchema("a", "b", "c")
	r := NewRecord(s, []Value{Int(10), Str("xy"), Float(0.5)})
	if r.String() != "10|xy|0.5" {
		t.Fatalf("String = %q", r.String())
	}
	// 2+2+3 field bytes + 2 separators + 1 newline = 10.
	if r.EncodedSize() != len(r.String())+1 {
		t.Fatalf("EncodedSize = %d, want %d", r.EncodedSize(), len(r.String())+1)
	}
}

func TestRecordClone(t *testing.T) {
	s := NewSchema("a")
	r := NewRecord(s, []Value{Int(1)})
	c := r.Clone()
	c.vals[0] = Int(99)
	if r.At(0).AsInt() != 1 {
		t.Fatal("Clone is not independent")
	}
}

func TestSliceSource(t *testing.T) {
	s := NewSchema("a")
	recs := []Record{
		NewRecord(s, []Value{Int(1)}),
		NewRecord(s, []Value{Int(2)}),
		NewRecord(s, []Value{Int(3)}),
	}
	src := NewSliceSource(s, recs)
	if src.NumRecords() != 3 {
		t.Fatalf("NumRecords = %d", src.NumRecords())
	}
	wantBytes := int64(0)
	for _, r := range recs {
		wantBytes += int64(r.EncodedSize())
	}
	if src.SizeBytes() != wantBytes {
		t.Fatalf("SizeBytes = %d, want %d", src.SizeBytes(), wantBytes)
	}
	var seen []int64
	src.Scan(func(r Record) bool {
		seen = append(seen, r.At(0).AsInt())
		return len(seen) < 2 // early stop
	})
	if len(seen) != 2 {
		t.Fatalf("early stop failed: %v", seen)
	}
}

func TestFuncSource(t *testing.T) {
	s := NewSchema("n")
	src := &FuncSource{
		Sch: s, N: 5, Bytes: 10,
		Gen: func(yield func(Record) bool) {
			for i := int64(0); i < 5; i++ {
				if !yield(NewRecord(s, []Value{Int(i)})) {
					return
				}
			}
		},
	}
	count := 0
	src.Scan(func(Record) bool { count++; return true })
	if count != 5 || src.NumRecords() != 5 || src.SizeBytes() != 10 {
		t.Fatalf("FuncSource misbehaved: count=%d", count)
	}
}
