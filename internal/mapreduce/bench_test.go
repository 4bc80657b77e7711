package mapreduce

import (
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/sim"
)

// BenchmarkStaticJob measures simulating one 40-map static job end to
// end (scheduling, physics, shuffle, reduce).
func BenchmarkStaticJob(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		cl := cluster.New(eng, cluster.PaperConfig())
		fs := dfs.New(cl)
		schema := data.NewSchema("V")
		var srcs []data.Source
		for p := 0; p < 40; p++ {
			recs := make([]data.Record, 100)
			for j := range recs {
				recs[j] = data.NewRecord(schema, []data.Value{data.Int(int64(j))})
			}
			srcs = append(srcs, data.NewSliceSource(schema, recs))
		}
		f, err := fs.Create("in", srcs, 1)
		if err != nil {
			b.Fatal(err)
		}
		jt := NewJobTracker(cl, DefaultConfig(), nil)
		job := jt.Submit(JobSpec{
			NewMapper: func(*JobConf) Mapper {
				return MapperFunc(func(rec data.Record, out *Collector) error {
					out.Emit("k", rec)
					return nil
				})
			},
		}, SplitsForFile(f))
		if !RunUntilDone(eng, job, 1e6) {
			b.Fatal("job stuck")
		}
	}
}

// BenchmarkMapCompletion isolates the map-completion hot path — the
// record scan, combine sort, and per-partition shuffle chunking — that
// the byPart slice, pooled collectors, and sortPairsStable target.
// Compare allocs/op against the pre-refactor per-task map allocation.
func BenchmarkMapCompletion(b *testing.B) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	fs := dfs.New(cl)
	schema := data.NewSchema("K", "V")
	var srcs []data.Source
	for p := 0; p < 8; p++ {
		recs := make([]data.Record, 500)
		for j := range recs {
			recs[j] = data.NewRecord(schema, []data.Value{
				data.Int(int64(j % 16)), data.Int(int64(j)),
			})
		}
		srcs = append(srcs, data.NewSliceSource(schema, recs))
	}
	f, err := fs.Create("in", srcs, 1)
	if err != nil {
		b.Fatal(err)
	}
	jt := NewJobTracker(cl, DefaultConfig(), nil)
	conf := NewJobConf()
	conf.SetInt(ConfNumReduces, 4)
	spec := JobSpec{
		Conf: conf,
		NewMapper: func(*JobConf) Mapper {
			return MapperFunc(func(rec data.Record, out *Collector) error {
				out.Emit(rec.MustGet("K").String(), rec)
				return nil
			})
		},
		NewReducer: func(*JobConf) Reducer { return IdentityReducer },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := jt.Submit(spec, SplitsForFile(f))
		if !RunUntilDone(eng, job, eng.Now()+1e6) {
			b.Fatal("job stuck")
		}
	}
}

// BenchmarkSingleReduceShuffle measures a static job shaped like a
// full-result SELECT (160 splits of 150 matches each, every pair under
// one key, one reduce) with every map output already memoised: the
// per-iteration cost is the single-reduce shuffle hot path — chunks
// referencing the memoised pairs, the in-place walk over in-order
// chunks, and the identity reduce's prefix path copying every pair
// straight from the runs into the job's output.
func BenchmarkSingleReduceShuffle(b *testing.B) {
	benchSingleReduce(b, "bench|single-reduce", nil)
}

// BenchmarkFirstKShuffle is BenchmarkSingleReduceShuffle with a first-k
// prefix reducer at k = 1000, the sample-skew LIMIT: six runs are kept
// whole, the seventh in part, and the other 153 are skipped.
func BenchmarkFirstKShuffle(b *testing.B) {
	benchSingleReduce(b, "bench|first-k", &firstK{k: 1000})
}

func benchSingleReduce(b *testing.B, memo string, reducer Reducer) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	fs := dfs.New(cl)
	schema := data.NewSchema("K", "V")
	var srcs []data.Source
	for p := 0; p < 160; p++ {
		recs := make([]data.Record, 150)
		for j := range recs {
			recs[j] = data.NewRecord(schema, []data.Value{
				data.Int(int64(p)), data.Int(int64(j)),
			})
		}
		srcs = append(srcs, data.NewSliceSource(schema, recs))
	}
	f, err := fs.Create("in", srcs, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MapOutputCache = NewMapOutputCache()
	jt := NewJobTracker(cl, cfg, nil)
	spec := JobSpec{
		NewMapper: func(*JobConf) Mapper {
			return MapperFunc(func(rec data.Record, out *Collector) error {
				out.Emit("k_dummy", rec)
				return nil
			})
		},
		MemoKey: memo,
	}
	if reducer != nil {
		spec.NewReducer = func(*JobConf) Reducer { return reducer }
	}
	// Warm the memo so every timed iteration maps from it.
	warm := jt.Submit(spec, SplitsForFile(f))
	if !RunUntilDone(eng, warm, eng.Now()+1e6) {
		b.Fatal("warm job stuck")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := jt.Submit(spec, SplitsForFile(f))
		if !RunUntilDone(eng, job, eng.Now()+1e6) {
			b.Fatal("job stuck")
		}
		if err := jt.Retire(job); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkipScan measures a fingerprinted job reading through the
// zone-map skip path: every attempt consults block statistics, scans
// the pruned match-admitting view (20 of 100 records per block here)
// and is charged only for the sub-blocks it read. Compare against
// BenchmarkFullScanStats, the same job forced down the full path, to
// see the pay-for-what-you-read win in wall clock and allocations.
func BenchmarkSkipScan(b *testing.B) {
	benchScanPath(b, InputPathSkip)
}

// BenchmarkFullScanStats is BenchmarkSkipScan's control: identical
// stat-bearing input, full read path.
func BenchmarkFullScanStats(b *testing.B) {
	benchScanPath(b, InputPathFull)
}

func benchScanPath(b *testing.B, mode string) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	fs := dfs.New(cl)
	srcs := make([]data.Source, 8)
	for p := range srcs {
		srcs[p] = newFakeStatSrc(int64(p) * 1000)
	}
	f, err := fs.Create("statin", srcs, 1)
	if err != nil {
		b.Fatal(err)
	}
	jt := NewJobTracker(cl, DefaultConfig(), nil)
	conf := NewJobConf()
	conf.Set(ConfInputPath, mode)
	conf.SetInt(ConfNumReduces, 4)
	spec := JobSpec{
		Conf: conf,
		NewMapper: func(*JobConf) Mapper {
			return MapperFunc(func(rec data.Record, out *Collector) error {
				out.Emit(rec.MustGet("K").String(), rec)
				return nil
			})
		},
		NewReducer:        func(*JobConf) Reducer { return IdentityReducer },
		FilterFingerprint: testFP,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := jt.Submit(spec, SplitsForFile(f))
		if !RunUntilDone(eng, job, eng.Now()+1e6) {
			b.Fatal("job stuck")
		}
	}
}

func BenchmarkHeartbeatScheduling(b *testing.B) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	jt := NewJobTracker(cl, DefaultConfig(), nil)
	jt.Submit(JobSpec{NewMapper: func(*JobConf) Mapper {
		return MapperFunc(func(data.Record, *Collector) error { return nil })
	}}, nil)
	b.ResetTimer()
	deadline := 0.0
	for i := 0; i < b.N; i++ {
		deadline += 1
		eng.RunUntil(deadline)
	}
}
