package dynamicmr

// Facade benchmarks and wall-clock guards. The table, figure and
// ablation benchmarks live with the experiment harness
// (internal/experiments/bench_test.go).

import (
	"math"
	"testing"
	"time"
)

// BenchmarkEstimateSelectivity measures the §VI statistics-harness
// application: estimate a predicate's selectivity to ±10%.
func BenchmarkEstimateSelectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := NewCluster()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.LoadLineItem("lineitem", DatasetSpec{
			Scale: 2, Skew: 0, Selectivity: 0.02, Rows: 800_000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
		est, err := c.EstimateSelectivity("lineitem", "L_DISCOUNT = 0.11", 0.1, "LA")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(est.Selectivity, "estimate")
		b.ReportMetric(float64(est.PartitionsProcessed), "partitions")
	}
}

// BenchmarkSampleQuery measures the end-to-end facade path: one dynamic
// sampling query on a pre-loaded table (fresh cluster per iteration to
// keep runs independent).
func BenchmarkSampleQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := NewCluster()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.LoadLineItem("lineitem", DatasetSpec{
			Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
		res, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 200 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// runQuickstart executes the README quickstart query on a fresh
// cluster and returns the wall-clock cost and virtual finish time.
func runQuickstart(t *testing.T, opts ...Option) (wall time.Duration, virtual float64) {
	t.Helper()
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: 42,
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 200 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	return time.Since(start), c.Now()
}

// TestTracingDisabledOverhead guards the nil-tracer fast path: with
// tracing off, the instrumentation hooks must cost under 5% of the
// traced run's wall clock on the quickstart job (min-of-N to damp
// scheduler noise, plus a small absolute allowance so sub-millisecond
// jitter cannot fail the build), and the simulated timeline must be
// unchanged.
func TestTracingDisabledOverhead(t *testing.T) {
	const runs = 5
	minWall := func(opts ...Option) (time.Duration, float64) {
		best, virtual := time.Duration(1<<62), 0.0
		for i := 0; i < runs; i++ {
			w, v := runQuickstart(t, opts...)
			if w < best {
				best = w
			}
			virtual = v
		}
		return best, virtual
	}
	// Interleaving warm-up: first measured pass shouldn't pay for page
	// cache and JIT-less warmup alone.
	runQuickstart(t)
	off, offV := minWall()
	on, onV := minWall(WithTracing())

	if math.Abs(offV-onV) > 0.01*onV {
		t.Fatalf("tracing changed the virtual timeline: off=%vs on=%vs", offV, onV)
	}
	budget := on + on/20 + 25*time.Millisecond
	if off > budget {
		t.Fatalf("tracing-disabled run took %v, traced run %v: disabled overhead exceeds 5%%", off, on)
	}
}

// TestSamplerOverhead guards the utilization sampler's cost: on top of
// a traced run, enabling WithUtilizationSampling must stay under 5% of
// wall clock (same min-of-N discipline and absolute allowance as the
// tracing check) and must not move the virtual timeline.
func TestSamplerOverhead(t *testing.T) {
	const runs = 5
	minWall := func(opts ...Option) (time.Duration, float64) {
		best, virtual := time.Duration(1<<62), 0.0
		for i := 0; i < runs; i++ {
			w, v := runQuickstart(t, opts...)
			if w < best {
				best = w
			}
			virtual = v
		}
		return best, virtual
	}
	runQuickstart(t, WithTracing())
	base, baseV := minWall(WithTracing())
	on, onV := minWall(WithTracing(), WithUtilizationSampling(5))

	if math.Abs(baseV-onV) > 0.01*baseV {
		t.Fatalf("sampling changed the virtual timeline: base=%vs on=%vs", baseV, onV)
	}
	budget := base + base/20 + 25*time.Millisecond
	if on > budget {
		t.Fatalf("sampled run took %v, unsampled traced run %v: sampler overhead exceeds 5%%", on, base)
	}
}
