package sampling

import (
	"math"
	"testing"

	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/tpch"
)

// BenchmarkAdhocScan is one map of dynbench's adhoc-scan shape: the
// z=1 scale-5 table of 40 partitions, here of 20k rows each, and a
// predicate that is not the planted one, so MapSplit scans for real,
// emitting every match with the 4-column projection. Each op is one map
// task's mapper, built by the job's factory, over the whole partition.
func BenchmarkAdhocScan(b *testing.B) {
	ds, err := dataset.Build(dataset.Spec{Scale: 5, Seed: 18, Z: 1, Partitions: 40, RowsOverride: 800_000})
	if err != nil {
		b.Fatal(err)
	}
	p := ds.Partition(0)
	pred := &expr.Binary{Op: expr.OpAnd,
		L: &expr.Between{X: &expr.Column{Name: "L_QUANTITY"},
			Lo: &expr.Literal{Val: data.Int(12)}, Hi: &expr.Literal{Val: data.Int(16)}},
		R: &expr.Binary{Op: expr.OpLe, L: &expr.Column{Name: "L_DISCOUNT"},
			R: &expr.Literal{Val: data.Float(0.03)}}}
	proj, err := tpch.LineItemSchema.Project("L_ORDERKEY", "L_LINENUMBER", "L_QUANTITY", "L_DISCOUNT")
	if err != nil {
		b.Fatal(err)
	}
	newMapper := NewMapperFactory(pred, math.MaxInt64, proj)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := newMapper(nil).(*Mapper)
		out := &mapreduce.Collector{}
		if err := m.MapSplit(&mapreduce.TaskContext{Source: p}, out); err != nil {
			b.Fatal(err)
		}
		if out.Len() == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkPlantedMapSplit is one memo-miss map of dynbench's
// mixed-reduce shape: a z=0 scale-20 table of 160 partitions over 48M
// rows, whose partition 0 holds 150 planted matches, and the
// static SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY over the planted
// predicate with no LIMIT, so MapSplit takes the accelerated path and
// emits every match. Each op is one map task's mapper, built by the
// job's factory, over the partition.
func BenchmarkPlantedMapSplit(b *testing.B) {
	ds, err := dataset.Build(dataset.Spec{Scale: 20, Seed: 117, Z: 0, Partitions: 160, RowsOverride: 48_000_000})
	if err != nil {
		b.Fatal(err)
	}
	p := ds.Partition(0)
	if p.NumMatches() != 150 {
		b.Fatalf("partition 0 holds %d planted matches, want 150", p.NumMatches())
	}
	proj, err := tpch.LineItemSchema.Project("L_ORDERKEY", "L_PARTKEY", "L_SUPPKEY")
	if err != nil {
		b.Fatal(err)
	}
	newMapper := NewMapperFactory(ds.Predicate(), math.MaxInt64, proj)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := newMapper(nil).(*Mapper)
		out := &mapreduce.Collector{}
		if err := m.MapSplit(&mapreduce.TaskContext{Source: p}, out); err != nil {
			b.Fatal(err)
		}
		if out.Len() != 150 {
			b.Fatalf("%d matches emitted, want 150", out.Len())
		}
	}
}

// BenchmarkSplitShuffle is a sampling job's split draw at Provider.Init:
// one pooled generator reseeded, then one shuffle of a 160-split table
// (dynbench's z=2 tables have 160 partitions). Each op uses a new seed,
// as each job does.
func BenchmarkSplitShuffle(b *testing.B) {
	splits := make([]mapreduce.Split, 160)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shuffleSplits(splits, int64(i)*7919)
	}
}
