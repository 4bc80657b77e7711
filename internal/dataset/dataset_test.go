package dataset

import (
	"math"
	"testing"

	"dynamicmr/internal/expr"
	"dynamicmr/internal/tpch"
)

// smallSpec builds a fully scannable dataset: 40 partitions, 200k rows,
// selectivity boosted so planting is observable.
func smallSpec(z float64, seed int64) Spec {
	return Spec{
		Scale:        1,
		Seed:         seed,
		Z:            z,
		Selectivity:  0.005,
		Partitions:   40,
		RowsOverride: 200_000,
	}
}

func TestBuildGeometry(t *testing.T) {
	ds, err := Build(Spec{Scale: 5, Seed: 1, Z: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumPartitions() != 40 {
		t.Fatalf("5x partitions = %d, want 40 (Table II)", ds.NumPartitions())
	}
	if ds.TotalRows() != 30_000_000 {
		t.Fatalf("5x rows = %d, want 30M", ds.TotalRows())
	}
	if math.Abs(float64(ds.TotalMatches())-15000) > 100 {
		t.Fatalf("5x matches = %d, want ≈15000 (0.05%%)", ds.TotalMatches())
	}
	var sum int64
	for _, p := range ds.Partitions() {
		sum += p.NumRecords()
		if p.NumRecords() <= 0 {
			t.Fatalf("partition %d empty", p.Index())
		}
		// Jitter stays within ±2.5% of the 750k base.
		if math.Abs(float64(p.NumRecords())-750_000) > 750_000*0.025 {
			t.Fatalf("partition %d rows %d outside jitter band", p.Index(), p.NumRecords())
		}
	}
	if sum != ds.TotalRows() {
		t.Fatalf("partition rows sum %d != total %d", sum, ds.TotalRows())
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Spec{Scale: 0, Z: 0}); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := Build(Spec{Scale: 1, Z: 0.7}); err == nil {
		t.Error("unknown skew level accepted")
	}
	if _, err := Build(Spec{Scale: 1, Z: 0, Selectivity: 1.5}); err == nil {
		t.Error("selectivity > 1 accepted")
	}
	if _, err := Build(Spec{Scale: 1, Z: 0, RowsOverride: -5}); err == nil {
		t.Error("negative row override accepted (it would load the full table)")
	}
	if _, err := Build(Spec{Scale: 1, Z: 0, RowsOverride: 1000, Partitions: -1}); err == nil {
		t.Error("negative partition count accepted")
	}
	if _, err := Build(Spec{Scale: 1, Z: 0, RowsOverride: 1000, Partitions: 2, Selectivity: math.NaN()}); err == nil {
		t.Error("NaN selectivity accepted (it would plant no match)")
	}
}

func TestDefaultNameAndSelectivity(t *testing.T) {
	ds, err := Build(Spec{Scale: 10, Seed: 3, Z: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "lineitem_10x_z2" {
		t.Fatalf("Name = %q", ds.Name())
	}
	if ds.Spec().Selectivity != DefaultSelectivity {
		t.Fatalf("Selectivity = %v", ds.Spec().Selectivity)
	}
}

func TestMatchDistributionConservation(t *testing.T) {
	for _, z := range []float64{0, 1, 2} {
		ds, err := Build(smallSpec(z, 7))
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, c := range ds.MatchDistribution() {
			sum += c
		}
		if sum != ds.TotalMatches() {
			t.Fatalf("z=%v: distribution sums to %d, TotalMatches %d", z, sum, ds.TotalMatches())
		}
		want := int64(float64(ds.TotalRows())*0.005 + 0.5)
		if sum != want {
			t.Fatalf("z=%v: planted %d, want %d", z, sum, want)
		}
	}
}

func TestSkewConcentration(t *testing.T) {
	top := func(z float64) int64 {
		ds, err := Build(smallSpec(z, 11))
		if err != nil {
			t.Fatal(err)
		}
		var max int64
		for _, c := range ds.MatchDistribution() {
			if c > max {
				max = c
			}
		}
		return max
	}
	t0, t1, t2 := top(0), top(1), top(2)
	if !(t0 < t1 && t1 < t2) {
		t.Fatalf("top-partition matches should grow with skew: %d, %d, %d", t0, t1, t2)
	}
}

func TestScanCountsMatchPlan(t *testing.T) {
	ds, err := Build(smallSpec(1, 13))
	if err != nil {
		t.Fatal(err)
	}
	pred := ds.Predicate()
	for _, p := range ds.Partitions()[:8] {
		got, err := p.ScanMatches(pred, -1)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got)) != p.NumMatches() {
			t.Fatalf("partition %d: scan found %d matches, plan says %d",
				p.Index(), len(got), p.NumMatches())
		}
	}
}

func TestNaturalRowsNeverMatch(t *testing.T) {
	// A dataset planted for z=2 must contain no natural matches for the
	// z=0 and z=1 predicates beyond their own planting — i.e. a dataset
	// planted for one predicate has zero matches for the others.
	ds, err := Build(smallSpec(2, 17))
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []float64{0, 1} {
		pred, err := PredicateForZ(other)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.Partition(0).ScanMatches(pred, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("z=%v predicate matched %d natural rows in z=2 dataset", other, len(got))
		}
	}
}

func TestAcceleratedEqualsScan(t *testing.T) {
	for _, z := range []float64{0, 1, 2} {
		ds, err := Build(smallSpec(z, 23))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ds.Partitions()[:6] {
			fast, ok := p.AcceleratedMatches(ds.PredicateFingerprint(), -1)
			if !ok {
				t.Fatalf("accelerated path rejected own fingerprint")
			}
			slow, err := p.ScanMatches(ds.Predicate(), -1)
			if err != nil {
				t.Fatal(err)
			}
			if len(fast) != len(slow) {
				t.Fatalf("z=%v p%d: fast %d records, slow %d", z, p.Index(), len(fast), len(slow))
			}
			for i := range fast {
				if fast[i].String() != slow[i].String() {
					t.Fatalf("z=%v p%d record %d differs:\nfast: %s\nslow: %s",
						z, p.Index(), i, fast[i], slow[i])
				}
			}
		}
	}
}

func TestAcceleratedRejectsForeignPredicate(t *testing.T) {
	ds, err := Build(smallSpec(0, 29))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Partition(0).AcceleratedMatches("(L_TAX = 0.5)", -1); ok {
		t.Fatal("accelerated path accepted a foreign predicate")
	}
}

func TestAcceleratedLimit(t *testing.T) {
	ds, err := Build(smallSpec(0, 31))
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Partition(0)
	if p.NumMatches() < 3 {
		t.Skip("partition has too few matches for limit test")
	}
	got, ok := p.AcceleratedMatches(ds.PredicateFingerprint(), 2)
	if !ok || len(got) != 2 {
		t.Fatalf("limit=2 returned %d records, ok=%v", len(got), ok)
	}
}

func TestScanMatchesLimit(t *testing.T) {
	ds, err := Build(smallSpec(0, 37))
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Partition(1)
	if p.NumMatches() < 2 {
		t.Skip("too few matches")
	}
	got, err := p.ScanMatches(ds.Predicate(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("limit=1 returned %d", len(got))
	}
	// limit=0 returns nothing, as AcceleratedMatches(fp, 0) does.
	got, err = p.ScanMatches(ds.Predicate(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, _ := p.AcceleratedMatches(ds.PredicateFingerprint(), 0)
	if len(got) != 0 || len(fast) != 0 {
		t.Fatalf("limit=0 returned %d (accelerated %d)", len(got), len(fast))
	}
}

func TestDeterministicRebuild(t *testing.T) {
	a, err := Build(smallSpec(1, 41))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallSpec(1, 41))
	if err != nil {
		t.Fatal(err)
	}
	da, db := a.MatchDistribution(), b.MatchDistribution()
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("rebuild differs at partition %d", i)
		}
	}
	ra, _ := a.Partition(0).AcceleratedMatches(a.PredicateFingerprint(), 5)
	rb, _ := b.Partition(0).AcceleratedMatches(b.PredicateFingerprint(), 5)
	for i := range ra {
		if ra[i].String() != rb[i].String() {
			t.Fatalf("rebuilt record %d differs", i)
		}
	}
}

func TestPlantedRowsSatisfyPredicate(t *testing.T) {
	for _, z := range []float64{0, 1, 2} {
		ds, err := Build(smallSpec(z, 43))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ds.Partitions()[:4] {
			recs, _ := p.AcceleratedMatches(ds.PredicateFingerprint(), -1)
			for _, r := range recs {
				ok, err := expr.EvalBool(ds.Predicate(), r)
				if err != nil || !ok {
					t.Fatalf("z=%v: planted row does not satisfy predicate: %s (%v)", z, r, err)
				}
				for c := 0; c < r.Len(); c++ {
					if k, want := r.At(c).Kind(), tpch.LineItemSchema.Kind(c); k != want {
						t.Fatalf("z=%v: planted row %s column %d is %s, declared %s", z, r, c, k, want)
					}
				}
			}
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	ds, err := Build(Spec{Scale: 5, Seed: 1, Z: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := ds.TotalRows() * tpch.AvgRowBytes
	if ds.TotalBytes() != want {
		t.Fatalf("TotalBytes = %d, want %d", ds.TotalBytes(), want)
	}
	p := ds.Partition(0)
	if p.SizeBytes() != p.NumRecords()*tpch.AvgRowBytes {
		t.Fatal("partition size accounting inconsistent")
	}
}

func TestSkewLevelsTable(t *testing.T) {
	levels := SkewLevels()
	if len(levels) != 3 {
		t.Fatalf("SkewLevels has %d rows, want 3 (Table III)", len(levels))
	}
	zs := map[float64]bool{}
	for _, l := range levels {
		zs[l.Z] = true
		if l.Predicate == nil || l.Name == "" {
			t.Fatalf("incomplete level %+v", l)
		}
	}
	for _, z := range []float64{0, 1, 2} {
		if !zs[z] {
			t.Fatalf("missing level z=%v", z)
		}
	}
	if _, err := LevelForZ(3); err == nil {
		t.Fatal("LevelForZ(3) should error")
	}
}

func TestPartitionAccessors(t *testing.T) {
	ds, err := Build(smallSpec(0, 47))
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Partition(5)
	if p.Index() != 5 || p.Dataset() != ds {
		t.Fatal("partition accessors wrong")
	}
	if p.Schema() != tpch.LineItemSchema {
		t.Fatal("partition schema wrong")
	}
}
