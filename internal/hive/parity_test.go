package hive

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
// data.FilterSource, as a source decorator that predates it does.
type decorated struct {
	data.Source
	accelerated
}

type accelerated interface {
	AcceleratedMatches(fingerprint string, limit int64) ([]data.Record, bool)
}

// TestAggMapperParityWithoutFilterSource: aggregate map output over a
// partition (late-materialising ScanWhere) is byte-identical to the
// output over a decorator hiding FilterSource (Scan fallback).
func TestAggMapperParityWithoutFilterSource(t *testing.T) {
	ds, err := dataset.Build(dataset.Spec{
		Scale: 1, Seed: 67, Z: 2, Selectivity: 0.01, Partitions: 8, RowsOverride: 40_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT L_SHIPMODE, COUNT(*), SUM(L_QUANTITY), AVG(L_DISCOUNT), MIN(L_SHIPDATE), MAX(L_TAX) " +
			"FROM lineitem WHERE L_SHIPMODE = 'DRONE' GROUP BY L_SHIPMODE",
		"SELECT L_RETURNFLAG, COUNT(*), SUM(L_EXTENDEDPRICE) FROM lineitem " +
			"WHERE L_QUANTITY BETWEEN 3 AND 9 AND L_DISCOUNT <= 0.04 GROUP BY L_RETURNFLAG",
		"SELECT COUNT(*), MAX(L_COMMENT) FROM lineitem WHERE L_SHIPMODE IN ('AIR', 'MAIL') OR NOT L_COMMENT LIKE '%s%'",
		"SELECT L_SHIPMODE, COUNT(*) FROM lineitem WHERE L_SHIPMODE < 'MAIL' GROUP BY L_SHIPMODE",
		"SELECT COUNT(*) FROM lineitem",
		"SELECT COUNT(*) FROM lineitem WHERE L_SHIPMODE > 5",
	}
	for _, q := range queries {
		sel := parseSelect(t, q)
		var pred expr.Expr = &expr.Literal{Val: data.Bool(true)}
		if sel.Where != nil {
			pred = sel.Where
		}
		plan, err := newAggPlan(sel, tpch.LineItemSchema, pred)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		run := func(src data.Source) string {
			out := &mapreduce.Collector{}
			err := (&aggMapper{plan: plan}).MapSplit(&mapreduce.TaskContext{Source: src}, out)
			var b strings.Builder
			for _, kv := range out.Pairs() {
				fmt.Fprintf(&b, "%s\t%s\n", kv.Key, kv.Value)
			}
			fmt.Fprintf(&b, "err %v", err)
			return b.String()
		}
		for _, p := range ds.Partitions() {
			if a, b := run(p), run(decorated{p, p}); a != b {
				t.Fatalf("p%d %s: aggregate output differs:\n%s\n---\n%s", p.Index(), q, a, b)
			}
		}
	}
}
