package dataset

import (
	"math/rand"
	"testing"

	"dynamicmr/internal/data"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/tpch"
)

// fullScanMatches scans the whole partition and returns the rendered
// records satisfying pred together with their row positions — the
// ground truth every pruned view is checked against.
func fullScanMatches(t *testing.T, p *Partition, pred expr.Expr) (recs []string, positions []int64) {
	t.Helper()
	var i int64
	p.Scan(func(r data.Record) bool {
		ok, err := expr.EvalBool(pred, r)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		if ok {
			recs = append(recs, r.String())
			positions = append(positions, i)
		}
		i++
		return true
	})
	return recs, positions
}

func TestZoneMapInvariants(t *testing.T) {
	for _, z := range []float64{0, 1, 2} {
		ds, err := Build(smallSpec(z, 51))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ds.Partitions() {
			zones := p.zones
			var rows, bytes, matches int64
			var matchBlocks int
			for i, zn := range zones {
				if zn.FirstRow != int64(i)*StatBlockRows {
					t.Fatalf("z=%v p%d zone %d starts at %d", z, p.Index(), i, zn.FirstRow)
				}
				if zn.Bytes != zn.Rows*tpch.AvgRowBytes {
					t.Fatalf("z=%v p%d zone %d byte accounting", z, p.Index(), i)
				}
				rows += zn.Rows
				bytes += zn.Bytes
				matches += zn.Matches
				if zn.Matches > 0 {
					matchBlocks++
				}
			}
			if rows != p.NumRecords() || bytes != p.SizeBytes() {
				t.Fatalf("z=%v p%d zones cover %d rows / %d bytes, partition has %d / %d",
					z, p.Index(), rows, bytes, p.NumRecords(), p.SizeBytes())
			}
			if matches != p.NumMatches() {
				t.Fatalf("z=%v p%d zone matches sum %d, partition plants %d",
					z, p.Index(), matches, p.NumMatches())
			}
			st, ok := p.BlockStats(ds.PredicateFingerprint())
			if !ok {
				t.Fatalf("z=%v p%d: BlockStats rejected own fingerprint", z, p.Index())
			}
			if st.Blocks != len(zones) || st.MatchBlocks != matchBlocks ||
				st.Rows != rows || st.Bytes != bytes || st.Matches != matches {
				t.Fatalf("z=%v p%d: aggregate stats %+v disagree with zones", z, p.Index(), st)
			}
			if _, ok := p.BlockStats("(L_TAX = 0.5)"); ok {
				t.Fatalf("z=%v p%d: BlockStats accepted a foreign fingerprint", z, p.Index())
			}
		}
	}
}

// TestZoneBoundsAreConservative checks the zone-map contract the skip
// rule relies on: every value the predicate column takes in a zone lies
// within the zone's [Min, Max]. (For z=2 the bounds alone cannot prune
// — 'DRONE' sorts inside the natural [AIR, TRUCK] range — which is why
// the skip rule uses the exact match-presence bit instead.)
func TestZoneBoundsAreConservative(t *testing.T) {
	for _, z := range []float64{0, 1, 2} {
		ds, err := Build(smallSpec(z, 53))
		if err != nil {
			t.Fatal(err)
		}
		col := tpch.LineItemSchema.Columns()[ds.level.statCol]
		for _, p := range ds.Partitions()[:4] {
			zones := p.zones
			var i int64
			p.Scan(func(r data.Record) bool {
				zn := zones[i/StatBlockRows]
				v := r.MustGet(col)
				if c, err := data.Compare(v, zn.Min); err != nil || c < 0 {
					t.Fatalf("z=%v p%d row %d: %s below zone min %s (%v)", z, p.Index(), i, v, zn.Min, err)
				}
				if c, err := data.Compare(v, zn.Max); err != nil || c > 0 {
					t.Fatalf("z=%v p%d row %d: %s above zone max %s (%v)", z, p.Index(), i, v, zn.Max, err)
				}
				i++
				return true
			})
		}
	}
}

// TestZoneMatchCountsExact checks that each zone's Matches is exactly
// the number of predicate-satisfying rows it contains — in particular,
// a Matches == 0 zone holds none, which is what makes skipping it
// lossless.
func TestZoneMatchCountsExact(t *testing.T) {
	for _, z := range []float64{0, 1, 2} {
		ds, err := Build(smallSpec(z, 59))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ds.Partitions()[:6] {
			_, positions := fullScanMatches(t, p, ds.Predicate())
			perZone := make([]int64, len(p.zones))
			for _, pos := range positions {
				perZone[pos/StatBlockRows]++
			}
			for i, zn := range p.zones {
				if zn.Matches != perZone[i] {
					t.Fatalf("z=%v p%d zone %d: stats say %d matches, scan finds %d",
						z, p.Index(), i, zn.Matches, perZone[i])
				}
			}
		}
	}
}

// TestPruneScanRecordIdentity is the satellite property test: over
// randomized dataset geometry (selectivity, partition count, row
// count, skew), filtering the skip-scan view by the predicate and
// reading the indexed view both return records identical — content and
// order — to filtering a full scan, with the partition's planted match
// positions as ground truth.
func TestPruneScanRecordIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		z := float64(rng.Intn(3))
		spec := Spec{
			Scale:        1,
			Seed:         rng.Int63n(1 << 30),
			Z:            z,
			Selectivity:  0.001 + rng.Float64()*0.01,
			Partitions:   3 + rng.Intn(8),
			RowsOverride: 20_000 + rng.Int63n(80_000),
		}
		ds, err := Build(spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fp := ds.PredicateFingerprint()
		pred := ds.Predicate()
		for _, p := range ds.Partitions() {
			full, positions := fullScanMatches(t, p, pred)
			// Ground truth: the matching positions are exactly the planted
			// ones.
			if len(positions) != len(p.matchPos) {
				t.Fatalf("trial %d p%d: scan found %d matches, planted %d",
					trial, p.Index(), len(positions), len(p.matchPos))
			}
			for i := range positions {
				if positions[i] != p.matchPos[i] {
					t.Fatalf("trial %d p%d: match %d at row %d, planted at %d",
						trial, p.Index(), i, positions[i], p.matchPos[i])
				}
			}

			// Skip view: filtering it must reproduce the full-scan filter.
			skipSrc, ok := p.PruneScan(fp, false)
			if !ok {
				t.Fatalf("trial %d p%d: PruneScan rejected own fingerprint", trial, p.Index())
			}
			var skip []string
			var skipRows int64
			skipSrc.Scan(func(r data.Record) bool {
				skipRows++
				ok, err := expr.EvalBool(pred, r)
				if err != nil {
					t.Fatalf("eval: %v", err)
				}
				if ok {
					skip = append(skip, r.String())
				}
				return true
			})
			if skipRows != skipSrc.NumRecords() {
				t.Fatalf("trial %d p%d: skip view yielded %d rows, declares %d",
					trial, p.Index(), skipRows, skipSrc.NumRecords())
			}
			requireSame(t, "skip", trial, p.Index(), full, skip)

			// Indexed view: every yielded record is a match, in order.
			idxSrc, ok := p.PruneScan(fp, true)
			if !ok {
				t.Fatalf("trial %d p%d: indexed PruneScan rejected own fingerprint", trial, p.Index())
			}
			var idx []string
			idxSrc.Scan(func(r data.Record) bool {
				idx = append(idx, r.String())
				return true
			})
			if int64(len(idx)) != idxSrc.NumRecords() {
				t.Fatalf("trial %d p%d: indexed view yielded %d rows, declares %d",
					trial, p.Index(), len(idx), idxSrc.NumRecords())
			}
			requireSame(t, "index", trial, p.Index(), full, idx)
		}
	}
}

func requireSame(t *testing.T, mode string, trial, part int, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("trial %d p%d %s: %d records, full scan has %d", trial, part, mode, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("trial %d p%d %s: record %d differs:\nfull: %s\n%s: %s",
				trial, part, mode, i, want[i], mode, got[i])
		}
	}
}

func TestPruneScanRejectsForeignFingerprint(t *testing.T) {
	ds, err := Build(smallSpec(0, 67))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Partition(0).PruneScan("(L_TAX = 0.5)", false); ok {
		t.Fatal("PruneScan accepted a foreign fingerprint")
	}
}
