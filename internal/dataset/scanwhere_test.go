package dataset

import (
	"fmt"
	"math/rand"
	"slices"
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

// scanWhereDirect calls ScanWhere with the bound predicate as keep.
func scanWhereDirect(t *testing.T, src data.FilterSource, pred expr.Expr, proj *data.Schema, limit int64) filterResult {
	t.Helper()
	var res filterResult
	if limit == 0 {
		return res
	}
	bound, err := expr.Bind(pred, tpch.LineItemSchema)
	if err != nil {
		t.Fatalf("Bind(%s): %v", pred, err)
	}
	if bound.String() != pred.String() {
		t.Fatalf("binding moved the fingerprint: %s -> %s", pred, bound)
	}
	var cols []int
	for _, c := range expr.Columns(pred) {
		i, _ := tpch.LineItemSchema.Index(c)
		cols = append(cols, i)
	}
	keep := func(r data.Record) (bool, error) { return expr.EvalBool(bound, r) }
	res.err = errText(src.ScanWhere(cols, keep, proj, collect(&res, limit)))
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
		sources := map[string]data.Source{"partition": p}
		for _, indexed := range []bool{false, true} {
			v, ok := p.PruneScan(ds.PredicateFingerprint(), indexed)
			if !ok {
				t.Fatal("PruneScan rejected the planted fingerprint")
			}
			sources[fmt.Sprintf("view(indexed=%v)", indexed)] = v
		}
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

// TestScanWhereMaterialisesLate pins the contract keep relies on: keep
// sees only the requested columns of a natural row, and a planted row
// always in full.
func TestScanWhereMaterialisesLate(t *testing.T) {
	ds, err := Build(smallSpec(1, 53))
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Partition(2)
	var natural, full int64
	keep := func(r data.Record) (bool, error) {
		if r.At(tpch.ColQuantity).IsNull() {
			t.Fatal("keep saw a row without its requested column")
		}
		if r.At(tpch.ColComment).IsNull() {
			natural++
		} else {
			full++
		}
		return false, nil
	}
	if err := p.ScanWhere([]int{tpch.ColQuantity}, keep, nil, func(data.Record) bool {
		t.Fatal("yield called for a rejected row")
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if full != p.NumMatches() || natural+full != p.NumRecords() {
		t.Fatalf("keep saw %d full and %d partial rows; want %d planted of %d",
			full, natural, p.NumMatches(), p.NumRecords())
	}
	if err := p.ScanWhere([]int{tpch.LineItemSchema.Len()}, keep, nil, nil); err == nil {
		t.Fatal("out-of-range column index accepted")
	}
}
