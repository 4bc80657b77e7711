package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"dynamicmr/internal/data"
)

// projectedSource is the projecting form of the accelerated match path,
// which a partition and both of its pruned views offer.
type projectedSource interface {
	ProjectedMatches(fingerprint string, limit int64, proj *data.Schema) ([]data.Record, bool)
}

// values returns r's values slice, which package data does not export,
// so a test can write into a record as code holding that slice could.
func values(r data.Record) []data.Value {
	v := reflect.ValueOf(r).FieldByName("vals")
	return unsafe.Slice((*data.Value)(v.UnsafePointer()), v.Len())
}

// TestProjectedMatchesEqualsAccelerated is the projection pushdown
// property of the accelerated path: over random seeds, every skew level
// and random projections, ProjectedMatches(fp, limit, proj) on a
// partition and on both of its pruned views returns exactly
// AcceleratedMatches(fp, limit) with each record projected to proj: the
// same values under the same schema, in the same order, at limits -1,
// 0, 1, n and n+5 for a partition of n matches. The projections are
// those of the ScanWhere property (none, random subsets of the schema
// in random order, with and without the planted column, and one not
// made from the schema). A foreign fingerprint is refused.
func TestProjectedMatchesEqualsAccelerated(t *testing.T) {
	rng := rand.New(rand.NewSource(20120402))
	for trial := 0; trial < 6; trial++ {
		z := float64(trial % 3)
		ds, err := Build(Spec{
			Scale: 1, Seed: rng.Int63(), Z: z, Selectivity: 0.01, Partitions: 4, RowsOverride: 20_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		fp := ds.PredicateFingerprint()
		if ds.TotalMatches() == 0 {
			t.Fatalf("z=%v: no planted matches", z)
		}
		for _, p := range ds.Partitions() {
			n := p.NumMatches()
			for _, pj := range projections(rng, ds.Predicate()) {
				for _, limit := range []int64{-1, 0, 1, n, n + 5} {
					whole, ok := p.AcceleratedMatches(fp, limit)
					if !ok {
						t.Fatal("AcceleratedMatches rejected the planted fingerprint")
					}
					want := filterResult{recs: whole}.project(pj.schema)
					for name, src := range pruneSources(t, p) {
						got, ok := src.(projectedSource).ProjectedMatches(fp, limit, pj.schema)
						if !ok {
							t.Fatalf("%s: ProjectedMatches rejected the planted fingerprint", name)
						}
						if !sameResult(filterResult{recs: got}, want) {
							t.Fatalf("z=%v p%d %s %s limit=%d: ProjectedMatches gives %v, AcceleratedMatches projected %v",
								z, p.Index(), name, pj.name, limit, filterResult{recs: got}, want)
						}
					}
				}
			}
			if _, ok := p.ProjectedMatches("(L_TAX = 0.5)", -1, nil); ok {
				t.Fatal("ProjectedMatches accepted a foreign predicate")
			}
		}
	}
}

// TestProjectedMatchesOwnValues: every record ProjectedMatches returns
// owns its values. Overwriting the records of one call one by one
// changes neither the records of that call not yet overwritten nor any
// record of a second call, whole, under a projection of the schema and
// under a projection made elsewhere.
func TestProjectedMatchesOwnValues(t *testing.T) {
	ds, err := Build(Spec{Scale: 1, Seed: 7, Z: 1, Selectivity: 0.01, Partitions: 2, RowsOverride: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	p, fp := ds.Partition(0), ds.PredicateFingerprint()
	proj, err := ds.Schema().Project("L_QUANTITY", "L_ORDERKEY", "L_COMMENT")
	if err != nil {
		t.Fatal(err)
	}
	for _, pj := range []projection{{"none", nil}, {"projected", proj}, {"foreign", data.NewSchema("L_SHIPMODE", "L_QUANTITY")}} {
		a, _ := p.ProjectedMatches(fp, -1, pj.schema)
		b, _ := p.ProjectedMatches(fp, -1, pj.schema)
		ref, _ := p.ProjectedMatches(fp, -1, pj.schema)
		if len(a) < 2 {
			t.Fatalf("partition holds %d matches, want at least 2", len(a))
		}
		rendered := func(recs []data.Record) []string {
			out := make([]string, len(recs))
			for i, r := range recs {
				out[i] = r.String()
			}
			return out
		}
		want := rendered(ref)
		for i, r := range a {
			vals := values(r)
			for j := range vals {
				vals[j] = data.Str("overwritten")
			}
			if got := rendered(a[i+1:]); fmt.Sprint(got) != fmt.Sprint(want[i+1:]) {
				t.Fatalf("%s: overwriting record %d changed a later record of its call", pj.name, i)
			}
		}
		if got := rendered(b); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: overwriting one call's records changed a second call's", pj.name)
		}
	}
}
