package sampling

import (
	"fmt"
	"strings"
	"testing"

	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/tpch"
)

// decorated forwards what a dataset partition offers except
// data.FilterSource and ProjectedSource, as a source decorator that
// predates them does: the filtered scans over it take the
// Scan+EvalBool fallback, and its accelerated matches are built whole
// and projected by the mapper.
type decorated struct {
	data.Source
	AcceleratedSource
	CountSource
}

func render(out *mapreduce.Collector) string {
	var b strings.Builder
	for _, kv := range out.Pairs() {
		fmt.Fprintf(&b, "%s\t%s\n", kv.Key, kv.Value)
	}
	fmt.Fprintf(&b, "counters %v", out.UserCounters())
	return b.String()
}

// TestMapperParityWithoutFilterSource: sampling and counting map output
// over a partition (late-materialising ScanWhere, projected planted
// matches) is byte-identical to the output over a decorator hiding
// FilterSource and ProjectedSource (Scan fallback, whole planted
// matches projected by the mapper), on tables of every skew level, for
// the planted predicate (accelerated on both), scan-only predicates and
// a failing one, whole and under three projections, two of which hold
// each level's planted column. A SliceSource of the partition's
// records, which offers neither FilterSource nor the accelerated path,
// gives the same output too, so both fallbacks project what the
// partition projects.
func TestMapperParityWithoutFilterSource(t *testing.T) {
	projs := []*data.Schema{nil}
	for _, cols := range [][]string{
		{"L_ORDERKEY", "L_LINENUMBER", "L_QUANTITY", "L_DISCOUNT"},
		{"L_COMMENT", "L_SHIPMODE", "L_QUANTITY", "L_RETURNFLAG", "L_SHIPDATE"},
		{"L_ORDERKEY", "L_PARTKEY", "L_SUPPKEY"},
	} {
		proj, err := tpch.LineItemSchema.Project(cols...)
		if err != nil {
			t.Fatal(err)
		}
		projs = append(projs, proj)
	}
	run := func(m mapreduce.Mapper, src data.Source) string {
		out := &mapreduce.Collector{}
		err := m.(mapreduce.SplitMapper).MapSplit(&mapreduce.TaskContext{Source: src}, out)
		return fmt.Sprintf("%s\nerr %v", render(out), err)
	}
	for _, z := range []float64{0, 1, 2} {
		ds, err := dataset.Build(dataset.Spec{
			Scale: 1, Seed: 61, Z: z, Selectivity: 0.01, Partitions: 8, RowsOverride: 40_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		preds := []expr.Expr{
			ds.Predicate(),
			&expr.Binary{Op: expr.OpAnd,
				L: &expr.Between{X: &expr.Column{Name: "L_QUANTITY"},
					Lo: &expr.Literal{Val: data.Int(12)}, Hi: &expr.Literal{Val: data.Int(15)}},
				R: &expr.Binary{Op: expr.OpLe, L: &expr.Column{Name: "L_DISCOUNT"},
					R: &expr.Literal{Val: data.Float(0.02)}}},
			&expr.Like{X: &expr.Column{Name: "L_COMMENT"}, Pattern: "%dolphins%"},
			&expr.Binary{Op: expr.OpGe, L: &expr.Column{Name: "L_QUANTITY"}, R: &expr.Literal{Val: data.Int(45)}},
			&expr.Binary{Op: expr.OpGe, L: &expr.Column{Name: "L_SHIPMODE"}, R: &expr.Literal{Val: data.Str("RAIL")}},
			&expr.Binary{Op: expr.OpEq, L: &expr.Column{Name: "L_MISSING"}, R: &expr.Literal{Val: data.Int(1)}},
		}
		for _, p := range ds.Partitions() {
			if _, ok := data.Source(p).(ProjectedSource); !ok {
				t.Fatal("partition does not offer ProjectedSource")
			}
			hidden := decorated{p, p, p}
			if _, ok := data.Source(hidden).(data.FilterSource); ok {
				t.Fatal("decorator exposes FilterSource")
			}
			if _, ok := data.Source(hidden).(ProjectedSource); ok {
				t.Fatal("decorator exposes ProjectedSource")
			}
			var recs []data.Record
			p.Scan(func(r data.Record) bool {
				recs = append(recs, r)
				return true
			})
			sliced := data.NewSliceSource(p.Schema(), recs)
			for _, pred := range preds {
				for _, k := range []int64{1, 1_000_000} {
					for _, pj := range projs {
						a := run(&Mapper{Predicate: pred, K: k, Projection: pj}, p)
						b := run(&Mapper{Predicate: pred, K: k, Projection: pj}, hidden)
						c := run(&Mapper{Predicate: pred, K: k, Projection: pj}, sliced)
						if a != b || a != c {
							t.Fatalf("z=%v p%d %s k=%d: sampling output differs:\n%s\n---\n%s\n---\n%s", z, p.Index(), pred, k, a, b, c)
						}
					}
				}
				a := run(&CountingMapper{Predicate: pred}, p)
				b := run(&CountingMapper{Predicate: pred}, hidden)
				c := run(&CountingMapper{Predicate: pred}, sliced)
				if a != b || a != c {
					t.Fatalf("z=%v p%d %s: counting output differs:\n%s\n---\n%s\n---\n%s", z, p.Index(), pred, a, b, c)
				}
			}
		}
	}
}
