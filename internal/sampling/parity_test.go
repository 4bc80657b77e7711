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
// data.FilterSource, as a source decorator that predates it does: the
// filtered scans over it take the Scan+EvalBool fallback.
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
// over a partition (late-materialising ScanWhere) is byte-identical to
// the output over a decorator hiding FilterSource (Scan fallback), for
// the planted predicate (accelerated on both), scan-only predicates and
// a failing one.
func TestMapperParityWithoutFilterSource(t *testing.T) {
	ds, err := dataset.Build(dataset.Spec{
		Scale: 1, Seed: 61, Z: 1, Selectivity: 0.01, Partitions: 8, RowsOverride: 40_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := tpch.LineItemSchema.Project("L_ORDERKEY", "L_LINENUMBER", "L_QUANTITY", "L_DISCOUNT")
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
	run := func(m mapreduce.Mapper, src data.Source) string {
		out := &mapreduce.Collector{}
		err := m.(mapreduce.SplitMapper).MapSplit(&mapreduce.TaskContext{Source: src}, out)
		return fmt.Sprintf("%s\nerr %v", render(out), err)
	}
	for _, p := range ds.Partitions() {
		hidden := decorated{p, p, p}
		if _, ok := data.Source(hidden).(data.FilterSource); ok {
			t.Fatal("decorator exposes FilterSource")
		}
		for _, pred := range preds {
			for _, k := range []int64{1, 1_000_000} {
				for _, pj := range []*data.Schema{nil, proj} {
					a := run(&Mapper{Predicate: pred, K: k, Projection: pj}, p)
					b := run(&Mapper{Predicate: pred, K: k, Projection: pj}, hidden)
					if a != b {
						t.Fatalf("p%d %s k=%d: sampling output differs:\n%s\n---\n%s", p.Index(), pred, k, a, b)
					}
				}
			}
			a := run(&CountingMapper{Predicate: pred}, p)
			b := run(&CountingMapper{Predicate: pred}, hidden)
			if a != b {
				t.Fatalf("p%d %s: counting output differs:\n%s\n---\n%s", p.Index(), pred, a, b)
			}
		}
	}
}
