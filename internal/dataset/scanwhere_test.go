package dataset

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dynamicmr/internal/data"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/tpch"
)

func col(name string) expr.Expr  { return &expr.Column{Name: name} }
func lit(v data.Value) expr.Expr { return &expr.Literal{Val: v} }
func bin(op expr.BinaryOp, l, r expr.Expr) expr.Expr {
	return &expr.Binary{Op: op, L: l, R: r}
}

// equivalencePredicates covers the adhoc-scan shape, the three planted
// predicates, string predicates built from OR/NOT/IN/LIKE, predicates a
// planted row's natural values would answer differently, arithmetic, an
// unknown column, a type error and TRUE, which reads no column.
func equivalencePredicates(rng *rand.Rand) []expr.Expr {
	lo := 1 + rng.Int63n(45)
	adhoc := bin(expr.OpAnd,
		&expr.Between{X: col("L_QUANTITY"), Lo: lit(data.Int(lo)), Hi: lit(data.Int(lo + 1 + rng.Int63n(7)))},
		bin(expr.OpLe, col("L_DISCOUNT"), lit(data.Float(float64(1+rng.Intn(5))/100))))
	preds := []expr.Expr{adhoc}
	for _, l := range SkewLevels() {
		preds = append(preds, l.Predicate)
	}
	return append(preds,
		bin(expr.OpOr,
			&expr.In{X: col("L_SHIPMODE"), List: []expr.Expr{lit(data.Str("AIR")), lit(data.Str("DRONE"))}},
			&expr.Like{X: col("L_COMMENT"), Pattern: "%foxes%"}),
		bin(expr.OpAnd,
			&expr.Not{X: bin(expr.OpEq, col("l_shipmode"), lit(data.Str("RAIL")))},
			&expr.Like{X: col("L_COMMENT"), Pattern: "quickly _ackages%"}),
		bin(expr.OpOr, bin(expr.OpEq, col("L_SHIPMODE"), lit(data.Str("DRONE"))),
			bin(expr.OpGt, col("L_QUANTITY"), lit(data.Int(48)))),
		&expr.In{X: col("L_SHIPMODE"), List: []expr.Expr{lit(data.Str("TRUCK")), lit(data.Str("REG AIR"))}},
		bin(expr.OpGe, col("L_QUANTITY"), lit(data.Int(45))),
		bin(expr.OpGt, bin(expr.OpDiv, col("L_EXTENDEDPRICE"), col("L_QUANTITY")), lit(data.Int(2000))),
		bin(expr.OpEq, col("L_NO_SUCH_COLUMN"), lit(data.Int(1))),
		bin(expr.OpGt, col("L_SHIPMODE"), lit(data.Int(5))),
		lit(data.Bool(true)),
	)
}

// projection is a SELECT list a filtered scan is checked under.
type projection struct {
	name   string
	schema *data.Schema // nil: whole records
}

// projections draws the SELECT lists checked with pred: none, empty,
// exactly pred's columns, columns disjoint from them, an overlapping
// set, all 16 columns, a random subset in random order, and a random
// subset in a schema not made by Project, which a partition builds in
// full and projects by name.
func projections(rng *rand.Rand, pred expr.Expr) []projection {
	var in, out []string
	for _, c := range tpch.LineItemSchema.Columns() {
		if slices.Contains(expr.Columns(pred), c) {
			in = append(in, c)
		} else {
			out = append(out, c)
		}
	}
	shuffled := func(cols []string) []string {
		cols = slices.Clone(cols)
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		return cols
	}
	overlap := shuffled(out)[:1+rng.Intn(3)]
	if len(in) > 0 {
		overlap = shuffled(append(overlap, in[rng.Intn(len(in))]))
	}
	lists := []struct {
		name string
		cols []string
	}{
		{"empty", nil},
		{"predicate", shuffled(in)},
		{"disjoint", shuffled(out)[:1+rng.Intn(len(out))]},
		{"overlapping", overlap},
		{"all", tpch.LineItemSchema.Columns()},
		{"random", shuffled(tpch.LineItemSchema.Columns())[:rng.Intn(17)]},
	}
	projs := []projection{{name: "none"}}
	for _, l := range lists {
		s, err := tpch.LineItemSchema.Project(l.cols...)
		if err != nil {
			panic(err)
		}
		projs = append(projs, projection{fmt.Sprintf("%s%v", l.name, l.cols), s})
	}
	foreign := shuffled(tpch.LineItemSchema.Columns())[:1+rng.Intn(16)]
	return append(projs, projection{fmt.Sprintf("foreign%v", foreign), data.NewSchema(foreign...)})
}

// filterResult is a filtered scan's output and error text. The records
// are kept as yielded and compared only after the scan has ended, so a
// record whose values a later row overwrote shows.
type filterResult struct {
	recs []data.Record
	err  string
}

func (r filterResult) String() string {
	return fmt.Sprintf("%d rows, err %q", len(r.recs), r.err)
}

// project returns r with every record projected to proj (nil: whole).
func (r filterResult) project(proj *data.Schema) filterResult {
	if proj == nil {
		return r
	}
	out := filterResult{err: r.err}
	for _, rec := range r.recs {
		out.recs = append(out.recs, rec.Project(proj))
	}
	return out
}

// collect returns a yield that keeps records in res up to limit (<0 =
// all). limit must not be 0.
func collect(res *filterResult, limit int64) func(data.Record) bool {
	return func(r data.Record) bool {
		res.recs = append(res.recs, r)
		return limit < 0 || int64(len(res.recs)) < limit
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// scanEvalReference is the plain filter loop: whole records from Scan,
// each tested with EvalBool.
func scanEvalReference(src data.Source, pred expr.Expr, limit int64) filterResult {
	var res filterResult
	if limit == 0 {
		return res
	}
	yield := collect(&res, limit)
	src.Scan(func(r data.Record) bool {
		ok, err := expr.EvalBool(pred, r)
		if err != nil {
			res.err = err.Error()
			return false
		}
		return !ok || yield(r)
	})
	return res
}

// evalFilter is a reference data.Filter: it tests every row, planted or
// in a batch, with EvalBool, reading a batch row's predicate columns
// through Batch.Fill.
type evalFilter struct {
	pred expr.Expr
	cols []int
	vals []data.Value
}

func newEvalFilter(t *testing.T, pred expr.Expr) *evalFilter {
	t.Helper()
	bound, err := expr.Bind(pred, tpch.LineItemSchema)
	if err != nil {
		t.Fatalf("Bind(%s): %v", pred, err)
	}
	if bound.String() != pred.String() {
		t.Fatalf("binding moved the fingerprint: %s -> %s", pred, bound)
	}
	f := &evalFilter{pred: bound, vals: make([]data.Value, tpch.LineItemSchema.Len())}
	for _, c := range expr.Columns(pred) {
		i, _ := tpch.LineItemSchema.Index(c)
		f.cols = append(f.cols, i)
	}
	return f
}

func (f *evalFilter) TestRow(r data.Record) (bool, error) { return expr.EvalBool(f.pred, r) }

func (f *evalFilter) TestBatch(b data.Batch, sel []int32) (int, int32, error) {
	rec := data.NewRecord(tpch.LineItemSchema, f.vals)
	n := 0
	for _, r := range sel {
		b.Fill(r, f.cols, f.vals)
		ok, err := expr.EvalBool(f.pred, rec)
		if err != nil {
			return n, r, err
		}
		if ok {
			sel[n] = r
			n++
		}
	}
	return n, 0, nil
}

// scanWhereDirect calls ScanWhere with the reference filter.
func scanWhereDirect(t *testing.T, src data.FilterSource, pred expr.Expr, proj *data.Schema, limit int64) filterResult {
	t.Helper()
	var res filterResult
	if limit == 0 {
		return res
	}
	res.err = errText(src.ScanWhere(newEvalFilter(t, pred), proj, collect(&res, limit)))
	return res
}

func scanFilter(src data.Source, pred expr.Expr, proj *data.Schema, limit int64) filterResult {
	var res filterResult
	if limit == 0 {
		return res
	}
	res.err = errText(expr.ScanFilter(src, pred, proj, collect(&res, limit)))
	return res
}

func sameResult(a, b filterResult) bool {
	if a.err != b.err || len(a.recs) != len(b.recs) {
		return false
	}
	for i, r := range a.recs {
		if !sameRecord(r, b.recs[i]) {
			return false
		}
	}
	return true
}

// sameRecord reports whether two records share one schema and hold equal
// values.
func sameRecord(a, b data.Record) bool {
	if a.Schema() != b.Schema() || a.Len() != b.Len() {
		return false
	}
	for j := 0; j < a.Len(); j++ {
		if a.At(j) != b.At(j) {
			return false
		}
	}
	return true
}

// pruneSources returns p and both its pruned views, by name.
func pruneSources(t *testing.T, p *Partition) map[string]data.Source {
	t.Helper()
	sources := map[string]data.Source{"partition": p}
	for _, indexed := range []bool{false, true} {
		v, ok := p.PruneScan(p.ds.PredicateFingerprint(), indexed)
		if !ok {
			t.Fatal("PruneScan rejected the planted fingerprint")
		}
		sources[fmt.Sprintf("view(indexed=%v)", indexed)] = v
	}
	return sources
}

// TestScanWhereEqualsScanEval is the late-materialisation property: over
// random seeds, skew levels and partition geometries, a ScanWhere with
// the predicate as keep and a projection yields exactly what
// Scan+EvalBool+Project yields, in the same order, with the same schema
// and the same error, on the partition and on both of its pruned views,
// planted rows included, through ScanWhere directly, expr.ScanFilter and
// ScanMatches, at limits 0, 1, k and -1. Every yielded record is
// compared only after its scan has ended, so it must own its values.
func TestScanWhereEqualsScanEval(t *testing.T) {
	rng := rand.New(rand.NewSource(20120401))
	for trial := 0; trial < 6; trial++ {
		spec := Spec{
			Scale:        1,
			Seed:         rng.Int63(),
			Z:            float64(trial % 3),
			Selectivity:  0.002 + 0.02*rng.Float64(),
			Partitions:   3 + rng.Intn(10),
			RowsOverride: 20_000 + rng.Int63n(40_000),
		}
		ds, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		p := ds.Partition(rng.Intn(ds.NumPartitions()))
		sources := pruneSources(t, p)
		limits := []int64{0, 1, 2 + rng.Int63n(40), -1}
		for _, pred := range equivalencePredicates(rng) {
			_, bindErr := expr.Bind(pred, tpch.LineItemSchema)
			projs := projections(rng, pred)
			for name, src := range sources {
				for _, limit := range limits {
					whole := scanEvalReference(src, pred, limit)
					for _, proj := range projs {
						where := fmt.Sprintf("spec %+v %s pred %s proj %s limit %d", spec, name, pred, proj.name, limit)
						want := whole.project(proj.schema)
						if got := scanFilter(src, pred, proj.schema, limit); !sameResult(got, want) {
							t.Fatalf("%s: ScanFilter %v, Scan+EvalBool+Project %v", where, got, want)
						}
						if bindErr == nil {
							if got := scanWhereDirect(t, src.(data.FilterSource), pred, proj.schema, limit); !sameResult(got, want) {
								t.Fatalf("%s: ScanWhere %v, Scan+EvalBool+Project %v", where, got, want)
							}
						}
					}
					if name != "partition" {
						continue
					}
					where := fmt.Sprintf("spec %+v pred %s limit %d", spec, pred, limit)
					recs, err := p.ScanMatches(pred, limit)
					if got := (filterResult{recs: recs, err: errText(err)}); !sameResult(got, whole) {
						t.Fatalf("%s: ScanMatches %v, Scan+EvalBool %v", where, got, whole)
					}
				}
			}
		}
	}
}

// batchRecorder is a data.Filter that records what a scan shows it. A
// batch row's global row number is recovered from its L_ORDERKEY (row/4
// + 1) and L_LINENUMBER (row%4 + 1), and every column is read, for a
// random half of the batch, through its typed accessor (INT, FLOAT) or
// Fill (STRING), and compared with the generator's row. It accepts the natural
// rows whose number is a multiple of 3, and every planted row.
type batchRecorder struct {
	t       *testing.T
	gen     *tpch.Generator
	rng     *rand.Rand
	batches [][]int64     // global rows of each TestBatch call
	planted []data.Record // records TestRow saw
}

func (f *batchRecorder) TestRow(r data.Record) (bool, error) {
	f.planted = append(f.planted, r)
	return true, nil
}

func (f *batchRecorder) TestBatch(b data.Batch, sel []int32) (int, int32, error) {
	keys := slices.Clone(b.Ints(tpch.ColOrderKey, sel))
	lines := b.Ints(tpch.ColLineNumber, sel)
	rows := make([]int64, len(sel))
	for k, r := range sel {
		rows[k] = (keys[r]-1)*4 + lines[r] - 1
	}
	f.batches = append(f.batches, rows)
	var half []int32
	for _, r := range sel {
		if f.rng.Intn(2) == 0 {
			half = append(half, r)
		}
	}
	for c := 0; c < tpch.LineItemSchema.Len(); c++ {
		var got func(r int32) data.Value
		switch tpch.LineItemSchema.Kind(c) {
		case data.KindInt:
			v := b.Ints(c, half)
			got = func(r int32) data.Value { return data.Int(v[r]) }
		case data.KindFloat:
			v := b.Floats(c, half)
			got = func(r int32) data.Value { return data.Float(v[r]) }
		case data.KindString:
			vals := make([]data.Value, tpch.LineItemSchema.Len())
			got = func(r int32) data.Value {
				b.Fill(r, []int{c}, vals)
				return vals[c]
			}
		default:
			f.t.Fatalf("column %d has no declared kind", c)
		}
		for _, r := range half {
			row := rows[slices.Index(sel, r)]
			if want := f.gen.Row(row).At(c); got(r) != want {
				f.t.Fatalf("row %d column %d: batch reads %v, Row %v", row, c, got(r), want)
			}
		}
	}
	n := 0
	for k, r := range sel {
		if rows[k]%3 == 0 {
			sel[n] = r
			n++
		}
	}
	return n, 0, nil
}

// TestScanWhereMaterialisesLate pins what ScanWhere shows a
// data.Filter, on the partition and both pruned views: TestBatch gets
// each covered natural row once, in ascending batches of at most
// data.BatchRows consecutive rows that never cross a zone's end, and
// reads columns equal to the generator's for whichever rows it asks;
// TestRow gets each covered planted row once, whole, each value of its
// column's declared kind; and the scan yields exactly the accepted
// rows, in row order, building no other.
func TestScanWhereMaterialisesLate(t *testing.T) {
	ds, err := Build(smallSpec(1, 53))
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Partition(2)
	gen := ds.generator()
	plantedAt := map[int64]bool{}
	for _, pos := range p.matchPos {
		plantedAt[p.startRow+pos] = true
	}
	for name, src := range pruneSources(t, p) {
		var want []string
		var natural, planted []int64
		src.Scan(func(r data.Record) bool {
			g := (r.At(tpch.ColOrderKey).AsInt()-1)*4 + r.At(tpch.ColLineNumber).AsInt() - 1
			if plantedAt[g] {
				planted = append(planted, g)
				want = append(want, r.String())
			} else {
				natural = append(natural, g)
				if g%3 == 0 {
					want = append(want, r.String())
				}
			}
			return true
		})
		f := &batchRecorder{t: t, gen: gen, rng: rand.New(rand.NewSource(7))}
		var got []string
		if err := src.(data.FilterSource).ScanWhere(f, nil, func(r data.Record) bool {
			got = append(got, r.String())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: yielded %d rows, want %d, or other rows", name, len(got), len(want))
		}
		var seen []int64
		for _, b := range f.batches {
			if len(b) == 0 || len(b) > data.BatchRows {
				t.Fatalf("%s: a batch of %d rows", name, len(b))
			}
			first := (b[0] - p.startRow) / StatBlockRows
			if last := (b[len(b)-1] - p.startRow) / StatBlockRows; last != first || b[len(b)-1]-b[0] >= data.BatchRows {
				t.Fatalf("%s: batch %d..%d crosses a zone's end or spans more than a batch", name, b[0], b[len(b)-1])
			}
			seen = append(seen, b...)
		}
		if !slices.Equal(seen, natural) {
			t.Fatalf("%s: batches covered %d natural rows, want %d in order", name, len(seen), len(natural))
		}
		if len(f.planted) != len(planted) {
			t.Fatalf("%s: TestRow saw %d rows, want the %d planted", name, len(f.planted), len(planted))
		}
		for i, r := range f.planted {
			if g := (r.At(tpch.ColOrderKey).AsInt()-1)*4 + r.At(tpch.ColLineNumber).AsInt() - 1; g != planted[i] {
				t.Fatalf("%s: TestRow saw row %d, want planted row %d", name, g, planted[i])
			}
			for c := 0; c < r.Len(); c++ {
				if k := r.At(c).Kind(); k != tpch.LineItemSchema.Kind(c) {
					t.Fatalf("%s: planted row %s column %d is %s, declared %s", name, r, c, k, tpch.LineItemSchema.Kind(c))
				}
			}
		}
	}
}

// edgePartition is a partition of ds holding rows rows from global row
// start, with planted rows at the offsets pos (ascending) and its zone
// map.
func edgePartition(ds *Dataset, start, rows int64, pos []int64) *Partition {
	p := &Partition{ds: ds, startRow: start, numRows: rows, matchPos: pos, bytes: rows * tpch.AvgRowBytes}
	p.buildZones()
	return p
}

// TestScanWhereBatchEdges pins the batch loop's edges against Scan +
// EvalBool, on the partition and both pruned views, through ScanFilter
// (the typed kernels) and the reference filter: planted rows at a
// batch's first and last row and on both sides of a zone boundary; a
// last zone, and an only zone, shorter than a batch; a LIMIT reached in
// the middle of a batch; and an error in the middle of a batch, at a
// natural or a planted row, after earlier natural and planted matches,
// which are yielded first.
func TestScanWhereBatchEdges(t *testing.T) {
	ds, err := Build(Spec{Scale: 1, Seed: 5, Z: 1, Partitions: 2, RowsOverride: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	const start = 1000 // a multiple of 4: offset o has L_LINENUMBER o%4 + 1
	geometries := []struct {
		rows int64
		pos  []int64
	}{
		{2*StatBlockRows + 77, []int64{0, 1, 50, 255, 256, 511, 4095, 4096, 4097, 4098, 2*StatBlockRows + 76}},
		{200, []int64{0, 50, 199}},
		{300, nil},
		{StatBlockRows + 300, []int64{StatBlockRows + 299}},
	}
	// failAfter(m) matches the rows before offset m (m a multiple of 4)
	// and fails, dividing by zero, on the first row from m on whose
	// L_LINENUMBER is 3, offset m+2; at m = 4096 that row is planted.
	failAfter := func(m int64) expr.Expr {
		return bin(expr.OpOr,
			bin(expr.OpLe, col("L_ORDERKEY"), lit(data.Int((start+m)/4))),
			bin(expr.OpGt, bin(expr.OpDiv, col("L_QUANTITY"), bin(expr.OpSub, col("L_LINENUMBER"), lit(data.Int(3)))), lit(data.Int(0))))
	}
	rng := rand.New(rand.NewSource(3))
	all := equivalencePredicates(rng)
	preds := []expr.Expr{failAfter(100), failAfter(252), failAfter(4092), failAfter(4096),
		bin(expr.OpGt, col("L_QUANTITY"), lit(data.Int(25))), all[0], all[2], all[4], all[5], all[len(all)-2], all[len(all)-1]}
	proj, err := tpch.LineItemSchema.Project("L_ORDERKEY", "L_LINENUMBER", "L_QUANTITY", "L_DISCOUNT")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range geometries {
		p := edgePartition(ds, start, g.rows, g.pos)
		for name, src := range pruneSources(t, p) {
			for _, pred := range preds {
				for _, limit := range []int64{1, 37, 257, -1} {
					whole := scanEvalReference(src, pred, limit)
					for _, proj := range []*data.Schema{nil, proj} {
						where := fmt.Sprintf("%d rows planted at %v, %s, pred %s, proj %v, limit %d", g.rows, g.pos, name, pred, proj != nil, limit)
						want := whole.project(proj)
						if got := scanFilter(src, pred, proj, limit); !sameResult(got, want) {
							t.Fatalf("%s: ScanFilter %v, Scan+EvalBool+Project %v", where, got, want)
						}
						if got := scanWhereDirect(t, src.(data.FilterSource), pred, proj, limit); !sameResult(got, want) {
							t.Fatalf("%s: ScanWhere %v, Scan+EvalBool+Project %v", where, got, want)
						}
					}
				}
			}
		}
	}
	// The failing predicates fail where intended, after their matches.
	p := edgePartition(ds, start, geometries[0].rows, geometries[0].pos)
	for _, c := range []struct {
		m       int64
		matches int
	}{{100, 100}, {4092, 4092}, {4096, 4096}} {
		res := scanEvalReference(p, failAfter(c.m), -1)
		if len(res.recs) != c.matches || res.err != "expr: division by zero" {
			t.Fatalf("failAfter(%d): %v, want %d matches then division by zero", c.m, res, c.matches)
		}
	}
}

// TestScanWhereAllocatesPerMatchOnly: a split with no matches allocates
// the same number of objects whatever its row count, so the batch loop
// allocates nothing per row or per batch.
func TestScanWhereAllocatesPerMatchOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race: sync.Pool drops pooled objects at random")
	}
	ds, err := Build(Spec{Scale: 1, Seed: 5, Z: 1, Partitions: 2, RowsOverride: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := tpch.LineItemSchema.Project("L_ORDERKEY", "L_QUANTITY")
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []expr.Expr{
		bin(expr.OpAnd,
			&expr.Between{X: col("L_QUANTITY"), Lo: lit(data.Int(12)), Hi: lit(data.Int(16))},
			bin(expr.OpLt, col("L_DISCOUNT"), lit(data.Float(0)))),
		bin(expr.OpOr, bin(expr.OpGt, col("L_QUANTITY"), lit(data.Int(50))),
			&expr.Not{X: bin(expr.OpNe, col("L_SHIPMODE"), lit(data.Str("DRONE")))}),
	} {
		allocs := func(rows int64) float64 {
			p := edgePartition(ds, 0, rows, nil)
			return testing.AllocsPerRun(20, func() {
				if err := expr.ScanFilter(p, pred, proj, func(data.Record) bool { return true }); err != nil {
					t.Fatal(err)
				}
			})
		}
		if small, large := allocs(1000), allocs(60_000); small != large {
			t.Fatalf("%s: a split of 1000 rows allocates %v objects, of 60000 rows %v", pred, small, large)
		}
	}
}

// TestScanWhereConcurrent runs filtered scans from several goroutines at
// once, as the scan executor's workers do, so the pooled scan state
// passes between them: every scan must still equal its sequential
// reference.
func TestScanWhereConcurrent(t *testing.T) {
	ds, err := Build(Spec{Scale: 1, Seed: 9, Z: 1, Partitions: 4, RowsOverride: 40_000, Selectivity: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	preds := equivalencePredicates(rand.New(rand.NewSource(11)))
	proj, err := tpch.LineItemSchema.Project("L_ORDERKEY", "L_DISCOUNT")
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]filterResult, ds.NumPartitions())
	for i, p := range ds.Partitions() {
		for _, pred := range preds {
			want[i] = append(want[i], scanEvalReference(p, pred, -1).project(proj))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				i := (g + k) % ds.NumPartitions()
				for j, pred := range preds {
					if got := scanFilter(ds.Partition(i), pred, proj, -1); !sameResult(got, want[i][j]) {
						t.Errorf("goroutine %d partition %d pred %s: %v, want %v", g, i, pred, got, want[i][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
