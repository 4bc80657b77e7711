package tpch

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dynamicmr/internal/data"
)

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator(1, 1)
	g2 := NewGenerator(1, 1)
	for _, i := range []int64{0, 1, 999, 123456, RowsPerScale - 1} {
		a, b := g1.Row(i), g2.Row(i)
		if a.String() != b.String() {
			t.Fatalf("row %d differs between identical generators:\n%s\n%s", i, a, b)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	g1 := NewGenerator(1, 1)
	g2 := NewGenerator(2, 1)
	same := 0
	for i := int64(0); i < 100; i++ {
		if g1.Row(i).String() == g2.Row(i).String() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 rows identical across seeds", same)
	}
}

func TestRowDomains(t *testing.T) {
	g := NewGenerator(42, 1)
	flags := map[string]bool{"R": true, "A": true, "N": true}
	statuses := map[string]bool{"O": true, "F": true}
	modes := make(map[string]bool)
	for _, m := range ShipModes {
		modes[m] = true
	}
	for i := int64(0); i < 5000; i++ {
		r := g.Row(i)
		q := r.At(ColQuantity).AsInt()
		if q < 1 || q > 50 {
			t.Fatalf("row %d quantity %d out of [1,50]", i, q)
		}
		d := r.At(ColDiscount).AsFloat()
		if d < 0 || d > 0.10+1e-12 {
			t.Fatalf("row %d discount %v out of [0,0.10]", i, d)
		}
		tax := r.At(ColTax).AsFloat()
		if tax < 0 || tax > 0.08+1e-12 {
			t.Fatalf("row %d tax %v out of [0,0.08]", i, tax)
		}
		if !flags[r.At(ColReturnFlag).AsString()] {
			t.Fatalf("row %d bad returnflag %q", i, r.At(ColReturnFlag).AsString())
		}
		if !statuses[r.At(ColLineStatus).AsString()] {
			t.Fatalf("row %d bad linestatus %q", i, r.At(ColLineStatus).AsString())
		}
		if !modes[r.At(ColShipMode).AsString()] {
			t.Fatalf("row %d bad shipmode %q", i, r.At(ColShipMode).AsString())
		}
		ep := r.At(ColExtendedPrice).AsFloat()
		if ep < float64(q)*900 || ep > float64(q)*2100+1 {
			t.Fatalf("row %d extendedprice %v inconsistent with quantity %d", i, ep, q)
		}
		pk := r.At(ColPartKey).AsInt()
		if pk < 1 || pk > 200_000 {
			t.Fatalf("row %d partkey %d out of range", i, pk)
		}
	}
}

func TestOrderKeyAndLineNumber(t *testing.T) {
	g := NewGenerator(1, 1)
	for i := int64(0); i < 20; i++ {
		r := g.Row(i)
		wantOrder := i/4 + 1
		wantLine := i%4 + 1
		if r.At(ColOrderKey).AsInt() != wantOrder {
			t.Fatalf("row %d orderkey = %d, want %d", i, r.At(ColOrderKey).AsInt(), wantOrder)
		}
		if r.At(ColLineNumber).AsInt() != wantLine {
			t.Fatalf("row %d linenumber = %d, want %d", i, r.At(ColLineNumber).AsInt(), wantLine)
		}
	}
}

func TestDatesWellFormedAndOrdered(t *testing.T) {
	g := NewGenerator(9, 1)
	for i := int64(0); i < 2000; i++ {
		r := g.Row(i)
		ship := r.At(ColShipDate).AsString()
		receipt := r.At(ColReceiptDate).AsString()
		for _, d := range []string{ship, receipt, r.At(ColCommitDate).AsString()} {
			if len(d) != 10 || d[4] != '-' || d[7] != '-' {
				t.Fatalf("malformed date %q", d)
			}
			if d < "1992-01-01" || d > "1998-12-31" {
				t.Fatalf("date %q outside TPC-H range", d)
			}
		}
		// Receipt strictly after ship; lexicographic compare is date order.
		if receipt <= ship {
			t.Fatalf("row %d receipt %q not after ship %q", i, receipt, ship)
		}
	}
}

func TestDateStringKnownValues(t *testing.T) {
	cases := map[int64]string{
		0:    "1992-01-01",
		30:   "1992-01-31",
		31:   "1992-02-01",
		59:   "1992-02-29", // 1992 is a leap year
		60:   "1992-03-01",
		365:  "1992-12-31",
		366:  "1993-01-01",
		2556: "1998-12-31",
	}
	for off, want := range cases {
		if got := dateString(off); got != want {
			t.Errorf("dateString(%d) = %q, want %q", off, got, want)
		}
	}
}

func TestScaleCardinality(t *testing.T) {
	for _, s := range []int{1, 5, 100} {
		g := NewGenerator(1, s)
		if g.NumRows() != int64(s)*RowsPerScale {
			t.Fatalf("scale %d: NumRows = %d", s, g.NumRows())
		}
	}
	if NewGenerator(1, 5).NumRows() != 30_000_000 {
		t.Fatal("5x should hold 30M rows per the paper")
	}
}

func TestScalePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive scale did not panic")
		}
	}()
	NewGenerator(1, 0)
}

func TestRowOutOfRangePanics(t *testing.T) {
	g := NewGenerator(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range row did not panic")
		}
	}()
	g.Row(g.NumRows())
}

func TestAvgRowBytesCalibration(t *testing.T) {
	g := NewGenerator(3, 1)
	var total int64
	n := int64(20_000)
	for i := int64(0); i < n; i++ {
		total += int64(g.Row(i).EncodedSize())
	}
	avg := float64(total) / float64(n)
	if math.Abs(avg-AvgRowBytes) > 10 {
		t.Fatalf("measured avg row size %.1f deviates from AvgRowBytes %d", avg, AvgRowBytes)
	}
}

func TestQuantityRoughlyUniform(t *testing.T) {
	g := NewGenerator(11, 1)
	counts := make(map[int64]int)
	n := 50_000
	for i := 0; i < n; i++ {
		counts[g.Row(int64(i)).At(ColQuantity).AsInt()]++
	}
	want := float64(n) / 50
	for q := int64(1); q <= 50; q++ {
		if math.Abs(float64(counts[q])-want) > want*0.25 {
			t.Fatalf("quantity %d count %d deviates >25%% from uniform %v", q, counts[q], want)
		}
	}
}

func TestMixAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := mix(12345)
	for bit := uint(0); bit < 64; bit += 7 {
		d := base ^ mix(12345^(1<<bit))
		pop := 0
		for d != 0 {
			pop += int(d & 1)
			d >>= 1
		}
		if pop < 10 || pop > 54 {
			t.Fatalf("bit %d: poor avalanche, %d bits flipped", bit, pop)
		}
	}
}

func TestRowRNGIndependenceProperty(t *testing.T) {
	f := func(seed uint64, a, b uint32) bool {
		if a == b {
			return true
		}
		return rowStream(seed, uint64(a)).draw(1) != rowStream(seed, uint64(b)).draw(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaColumns(t *testing.T) {
	cols := LineItemSchema.Columns()
	if len(cols) != 16 {
		t.Fatalf("LINEITEM has %d columns, want 16", len(cols))
	}
	if !strings.HasPrefix(cols[0], "L_") {
		t.Fatalf("unexpected first column %q", cols[0])
	}
	if i, ok := LineItemSchema.Index("l_shipmode"); !ok || i != ColShipMode {
		t.Fatalf("Index(l_shipmode) = %d, %v", i, ok)
	}
}

func TestRecordFieldsMatchSchema(t *testing.T) {
	g := NewGenerator(5, 1)
	r := g.Row(0)
	if r.Len() != LineItemSchema.Len() {
		t.Fatalf("record has %d fields, schema %d", r.Len(), LineItemSchema.Len())
	}
	if r.Schema() != LineItemSchema {
		t.Fatal("record not bound to LineItemSchema")
	}
	if _, ok := r.Get("L_COMMENT"); !ok {
		t.Fatal("L_COMMENT missing")
	}
	var _ data.Record = r
	// Every generated value has its column's declared kind. (The
	// dataset package checks the same of planted rows.)
	for i := int64(0); i < 5000; i++ {
		r := g.Row(i * 1193)
		for c := 0; c < r.Len(); c++ {
			if k, want := r.At(c).Kind(), LineItemSchema.Kind(c); k != want {
				t.Fatalf("row %d column %s is %s, declared %s", i*1193, LineItemSchema.Columns()[c], k, want)
			}
		}
	}
}

// filled returns n copies of v.
func filled[T any](v T, n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestTypedFillsMatchRow: FillInts and FillFloats write, at each
// selected batch row and nowhere else, the value Row computes.
func TestTypedFillsMatchRow(t *testing.T) {
	g := NewGenerator(17, 2)
	s := rowStream(5, 0)
	const rows = 256
	for trial := uint64(0); trial < 40; trial++ {
		first := s.between(3*trial+1, 0, g.NumRows()-rows)
		var sel []int32
		for k := int32(0); k < rows; k++ {
			if s.draw(3*trial+2+uint64(k)<<20)%3 == 0 {
				sel = append(sel, k)
			}
		}
		for c := 0; c < LineItemSchema.Len(); c++ {
			// Unselected entries must keep a sentinel no column takes.
			got := make([]data.Value, rows)
			var unset data.Value
			switch LineItemSchema.Kind(c) {
			case data.KindInt:
				v := filled(int64(-1), rows)
				g.FillInts(c, first, sel, v)
				for k := range v {
					got[k] = data.Int(v[k])
				}
				unset = data.Int(-1)
			case data.KindFloat:
				v := filled(-1.0, rows)
				g.FillFloats(c, first, sel, v)
				for k := range v {
					got[k] = data.Float(v[k])
				}
				unset = data.Float(-1)
			default:
				continue
			}
			for k, j := int32(0), 0; k < rows; k++ {
				want := unset
				if j < len(sel) && sel[j] == k {
					want = g.Row(first + int64(k)).At(c)
					j++
				}
				if got[k] != want {
					t.Fatalf("row %d column %s: typed fill %v, want %v", first+int64(k), LineItemSchema.Columns()[c], got[k], want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a typed fill past the last row did not panic")
		}
	}()
	g.FillInts(ColQuantity, g.NumRows()-1, []int32{0, 1}, make([]int64, 2))
}

func TestFillMatchesRowOnMaskedColumns(t *testing.T) {
	g := NewGenerator(17, 2)
	rng := rowStream(99, 0)
	sentinel := data.Str("unset")
	for n := uint64(0); n < 2000; n++ {
		i := rng.between(2*n+1, 0, g.NumRows()-1)
		mask := uint32(rng.draw(2*n+2)) & AllColumns
		vals := make([]data.Value, LineItemSchema.Len())
		for c := range vals {
			vals[c] = sentinel
		}
		g.Fill(i, mask, vals)
		row := g.Row(i)
		for c, v := range vals {
			if mask&(1<<c) == 0 {
				if v != sentinel {
					t.Fatalf("row %d mask %#x: unselected column %d written: %v", i, mask, c, v)
				}
				continue
			}
			if want := row.At(c); v != want {
				t.Fatalf("row %d mask %#x column %d: Fill %v, Row %v", i, mask, c, v, want)
			}
		}
	}
	if AllColumns != 1<<LineItemSchema.Len()-1 {
		t.Fatalf("AllColumns %#x does not cover the %d-column schema", AllColumns, LineItemSchema.Len())
	}
}

// TestGeneratorGolden pins the generator's output: digests of whole row
// ranges at two (seed, scale) pairs, and three literal rows covering
// both sides of the ship-date branch, all recorded from the sequential
// generator the per-column draws replaced.
func TestGeneratorGolden(t *testing.T) {
	for _, c := range []struct {
		seed        uint64
		scale       int
		first, rows int64
		digest      uint64
	}{
		{1, 1, 0, 5000, 0x25e4280305910e46},
		{7, 3, 17_995_000, 5000, 0x1b5c3a07e0c33ed6},
	} {
		g := NewGenerator(c.seed, c.scale)
		h := fnv.New64a()
		for i := c.first; i < c.first+c.rows; i++ {
			h.Write([]byte(g.Row(i).String()))
			h.Write([]byte{'\n'})
		}
		if got := h.Sum64(); got != c.digest {
			t.Errorf("seed %d scale %d rows [%d,%d): digest %#016x, want %#016x",
				c.seed, c.scale, c.first, c.first+c.rows, got, c.digest)
		}
	}
	for _, c := range []struct {
		seed  uint64
		scale int
		row   int64
		want  string
	}{
		{1, 1, 0, "1|129967|6423|1|4|7405.41|0.01|0.03|A|F|1995-12-12|1995-11-18|1996-01-08|NONE|RAIL|ruthlessly theodolites nag"},
		{1, 1, 4, "2|199894|2225|1|39|78058.03|0.05|0.05|N|O|1998-05-01|1998-05-24|1998-05-08|TAKE BACK RETURN|SHIP|daringly excuses haggle"},
		{42, 100, 123_456_789, "30864198|2537292|925218|2|50|55501.21|0.01|0.07|R|F|1993-03-24|1993-03-04|1993-04-09|DELIVER IN PERSON|SHIP|slowly accounts engage"},
	} {
		if got := NewGenerator(c.seed, c.scale).Row(c.row).String(); got != c.want {
			t.Errorf("seed %d scale %d row %d:\n got %s\nwant %s", c.seed, c.scale, c.row, got, c.want)
		}
	}
}
