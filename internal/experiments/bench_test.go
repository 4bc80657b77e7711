package experiments

// One benchmark per table and figure of the paper's evaluation (§V),
// plus the ablations. Each benchmark regenerates the artifact on the
// simulated cluster and reports the headline numbers via
// b.ReportMetric, so
//
//	go test ./internal/experiments -run '^$' -bench=. -benchmem
//
// doubles as a compact reproduction run. Benchmarks default to a
// scaled-down geometry (seconds each); set DYNAMICMR_BENCH_MODE=quick
// or =paper for the larger configurations (cmd/experiments prints the
// full grids).

import (
	"os"
	"testing"

	"dynamicmr/internal/core"
)

// benchOptions picks the experiment geometry for benchmarks.
func benchOptions() Options {
	switch os.Getenv("DYNAMICMR_BENCH_MODE") {
	case "paper":
		return DefaultOptions()
	case "quick":
		return QuickOptions()
	}
	o := DefaultOptions()
	o.Scales = []int{2, 5, 10}
	o.Runs = 1
	o.SampleK = 500
	o.RowsPerScaleOverride = 400_000
	o.WorkloadRowsPerScaleOverride = 3_200_000
	o.Users = 4
	o.WarmupS = 100
	o.MeasureS = 300
	o.WorkloadScale = 15
	o.SamplingFractions = []float64{0.5}
	return o
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := TableI(); len(t.Rows) != 5 {
			b.Fatal("Table I incomplete")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := TableII(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := TableIII(); len(t.Rows) != 3 {
			b.Fatal("Table III incomplete")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := Figure4(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := Figure5(opt)
		if err != nil {
			b.Fatal(err)
		}
		maxScale := opt.Scales[len(opt.Scales)-1]
		if had, ok := res.Cell(1, maxScale, core.PolicyHadoop); ok {
			b.ReportMetric(had.ResponseS, "hadoop_response_s")
			b.ReportMetric(had.PartitionsProcessed, "hadoop_partitions")
		}
		if la, ok := res.Cell(1, maxScale, core.PolicyLA); ok {
			b.ReportMetric(la.ResponseS, "la_response_s")
			b.ReportMetric(la.PartitionsProcessed, "la_partitions")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := Figure6(opt)
		if err != nil {
			b.Fatal(err)
		}
		if la, ok := res.Cell(core.PolicyLA, 0); ok {
			b.ReportMetric(la.Throughput, "la_jobs_per_hour")
		}
		if had, ok := res.Cell(core.PolicyHadoop, 0); ok {
			b.ReportMetric(had.Throughput, "hadoop_jobs_per_hour")
			b.ReportMetric(had.CPUUtilPct, "hadoop_cpu_pct")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := Figure7(opt)
		if err != nil {
			b.Fatal(err)
		}
		f := opt.SamplingFractions[0]
		if la, ok := res.Cell(f, core.PolicyLA); ok {
			b.ReportMetric(la.NonSamplingThroughput, "nonsampling_under_la")
		}
		if had, ok := res.Cell(f, core.PolicyHadoop); ok {
			b.ReportMetric(had.NonSamplingThroughput, "nonsampling_under_hadoop")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		res, err := Figure8(opt)
		if err != nil {
			b.Fatal(err)
		}
		f := opt.SamplingFractions[0]
		if la, ok := res.Cell(f, core.PolicyLA); ok {
			b.ReportMetric(la.LocalityPct, "fair_locality_pct")
			b.ReportMetric(la.OccupancyPct, "fair_occupancy_pct")
		}
	}
}

func BenchmarkAblationInterval(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := AblationInterval(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := AblationThreshold(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationGrabScale(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := AblationGrabScale(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAdaptive(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := AblationAdaptive(opt); err != nil {
			b.Fatal(err)
		}
	}
}
