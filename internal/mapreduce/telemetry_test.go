package mapreduce

import (
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/trace"
)

// emptyMapSpec is a job that reads its input and emits nothing, so its
// disk and CPU volume is the scan's alone.
var emptyMapSpec = JobSpec{NewMapper: func(*JobConf) Mapper {
	return MapperFunc(func(data.Record, *Collector) error { return nil })
}}

// submitScan submits an emptyMapSpec job over a fresh file, for load.
func (r *testRig) submitScan(t *testing.T, name string, blocks, recs int) *Job {
	t.Helper()
	return r.jt.Submit(emptyMapSpec, SplitsForFile(r.makeFile(t, name, blocks, recs)))
}

// newSlowRig is a rig whose task attempts take 20 virtual seconds to
// start, so a few hundred maps span several poll intervals.
func newSlowRig(traced bool) *testRig {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	cfg := DefaultConfig()
	cfg.Costs.TaskStartupS = 20
	cfg.Trace = trace.Config{Enabled: traced}
	return &testRig{eng: eng, cl: cl, fs: dfs.New(cl), jt: NewJobTracker(cl, cfg, nil)}
}

func TestUtilizationIdleClusterReadsZero(t *testing.T) {
	r := newRig(t, nil)
	r.jt.SampleUtilization()
	r.eng.RunUntil(95)
	tl := r.jt.UtilizationTimeline()
	if len(tl) != 3 {
		t.Fatalf("points = %d, want 3", len(tl))
	}
	for _, m := range tl {
		if m.CPUUtilPct != 0 || m.DiskReadKBs != 0 || m.SlotOccupancyPct != 0 {
			t.Fatalf("idle cluster point non-zero: %+v", m)
		}
	}
}

// TestUtilizationThirtySecondCadence pins the §V-D cadence: the first
// point lands one interval after SampleUtilization, then every 30 s.
func TestUtilizationThirtySecondCadence(t *testing.T) {
	r := newRig(t, nil)
	r.eng.RunUntil(7)
	r.jt.SampleUtilization()
	r.eng.RunUntil(100)
	tl := r.jt.UtilizationTimeline()
	if len(tl) != 3 {
		t.Fatalf("points in (7, 100] = %d, want 3", len(tl))
	}
	for i, m := range tl {
		if want := 7 + UtilizationIntervalS*float64(i+1); m.Time != want {
			t.Fatalf("point %d at t=%v, want %v", i, m.Time, want)
		}
	}
}

func TestUtilizationIsOptIn(t *testing.T) {
	r := newRig(t, nil)
	job := r.submitScan(t, "in", 40, 100)
	RunUntilDone(r.eng, job, 1e6)
	r.eng.RunUntil(r.eng.Now() + 100)
	if n := len(r.jt.UtilizationTimeline()); n != 0 {
		t.Fatalf("untraced runtime polled %d points without SampleUtilization", n)
	}
}

func TestUtilizationSeesLoad(t *testing.T) {
	r := newRig(t, nil)
	r.jt.SampleUtilization()
	job := r.submitScan(t, "in", 80, 2000)
	RunUntilDone(r.eng, job, 1e6)
	r.eng.RunUntil(r.eng.Now() + UtilizationIntervalS)
	m := r.jt.UtilizationTimeline()[0]
	if m.CPUUtilPct <= 0 || m.DiskReadKBs <= 0 || m.SlotOccupancyPct <= 0 {
		t.Fatalf("first interval under load reads %+v", m)
	}
	if m.CPUUtilPct > 100+1e-6 || m.SlotOccupancyPct > 100+1e-6 {
		t.Fatalf("percentages out of range: %+v", m)
	}
}

func TestUtilizationMonotonicUnderConcurrentJobs(t *testing.T) {
	r := newSlowRig(false)
	r.jt.SampleUtilization()
	j1 := r.submitScan(t, "in1", 100, 100)
	j2 := r.submitScan(t, "in2", 100, 100)
	if !RunAllUntilDone(r.eng, []*Job{j1, j2}, 1e6) {
		t.Fatal("jobs did not finish")
	}
	tl := r.jt.UtilizationTimeline()
	if len(tl) < 3 {
		t.Fatalf("points = %d; the jobs should span several intervals", len(tl))
	}
	for i, m := range tl {
		if i > 0 && m.Time <= tl[i-1].Time {
			t.Fatalf("points out of order at %d: %+v", i, tl)
		}
		if m.CPUUtilPct > 100+1e-6 || m.SlotOccupancyPct > 100+1e-6 {
			t.Fatalf("percentages out of range under concurrency: %+v", m)
		}
	}
	if tl[0].CPUUtilPct <= 0 || tl[0].SlotOccupancyPct <= 0 {
		t.Fatalf("first interval under two jobs reads %+v", tl[0])
	}
}

// TestUtilizationDiskReadIntegratesToBytes checks the Figure 6
// disk-read series against ground truth: a job that reads exactly B
// bytes must produce points integrating back to B.
func TestUtilizationDiskReadIntegratesToBytes(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 20, 500)
	wantBytes := float64(f.TotalBytes())
	r.jt.SampleUtilization()
	job := r.jt.Submit(emptyMapSpec, SplitsForFile(f))
	RunUntilDone(r.eng, job, 1e6)
	// Run past the last boundary so the final interval lands.
	r.eng.RunUntil(r.eng.Now() + UtilizationIntervalS)

	// point.DiskReadKBs * 1024 * interval * totalDisks, summed.
	var readBytes, lastT float64
	for _, m := range r.jt.UtilizationTimeline() {
		readBytes += m.DiskReadKBs * 1024 * (m.Time - lastT) * float64(cluster.TotalDisks)
		lastT = m.Time
	}
	// Reduce output writes add a little on top of the reads; the map
	// reads must be within a few percent.
	if readBytes < wantBytes*0.98 || readBytes > wantBytes*1.25 {
		t.Fatalf("sampled disk volume %.0f, actual read volume %.0f", readBytes, wantBytes)
	}
}

// TestUtilizationCPUMatchesMapWork checks the integral the CPU series
// is derived from: a job whose map work is known integrates to the
// configured per-record cost, and the sampled series integrates back
// to that integral.
func TestUtilizationCPUMatchesMapWork(t *testing.T) {
	r := newRig(t, nil)
	r.jt.SampleUtilization()
	job := r.submitScan(t, "in", 10, 1000)
	RunUntilDone(r.eng, job, 1e6)
	r.eng.RunUntil(r.eng.Now() + UtilizationIntervalS)
	wantCPU := float64(10*1000) * DefaultCosts().MapCPUPerRecordS
	got := r.cl.CPUUsedIntegral()
	// Float accumulation tolerance below; sort/reduce overhead is small
	// for empty map output above.
	if got < wantCPU*0.99 || got > wantCPU*1.5+0.1 {
		t.Fatalf("CPU integral %v, map work %v", got, wantCPU)
	}
	var sampled, lastT float64
	for _, m := range r.jt.UtilizationTimeline() {
		sampled += m.CPUUtilPct / 100 * r.cl.CPUCapacity() * (m.Time - lastT)
		lastT = m.Time
	}
	if d := sampled - got; d > 1e-6*got || d < -1e-6*got {
		t.Fatalf("sampled CPU %v, integral %v", sampled, got)
	}
}

// TestSampleUtilizationIdempotent: repeated SampleUtilization calls, before
// and after a submission, on an untraced runtime and on a traced one whose
// poll already starts with the first submission, never add a second loop.
func TestSampleUtilizationIdempotent(t *testing.T) {
	for _, traced := range []bool{false, true} {
		r := newSlowRig(traced)
		r.jt.SampleUtilization()
		r.jt.SampleUtilization()
		job := r.submitScan(t, "in", 200, 100)
		r.jt.SampleUtilization()
		RunUntilDone(r.eng, job, 1e6)
		r.eng.RunUntil(r.eng.Now() + UtilizationIntervalS)
		tl := r.jt.UtilizationTimeline()
		if want := int(r.eng.Now() / UtilizationIntervalS); len(tl) != want || want < 4 {
			t.Fatalf("traced=%v: points = %d by t=%v, want %d (one loop)", traced, len(tl), r.eng.Now(), want)
		}
	}
}

// TestSampleUtilizationTracedTwin runs one job on an untraced runtime
// that opts in to the poll and on a traced twin whose poll starts with
// the first submission: the timelines must be identical and the traced
// one must be exactly what the tracer recorded.
func TestSampleUtilizationTracedTwin(t *testing.T) {
	run := func(traced bool) *JobTracker {
		r := newSlowRig(traced)
		if !traced {
			r.jt.SampleUtilization()
		}
		job := r.submitScan(t, "in", 200, 100)
		RunUntilDone(r.eng, job, 1e6)
		r.eng.RunUntil(r.eng.Now() + UtilizationIntervalS)
		return r.jt
	}
	plain, traced := run(false), run(true)
	pt, tt := plain.UtilizationTimeline(), traced.UtilizationTimeline()
	if len(pt) == 0 || len(pt) != len(tt) {
		t.Fatalf("untraced %d points, traced %d", len(pt), len(tt))
	}
	for i := range pt {
		if pt[i] != tt[i] {
			t.Fatalf("point %d diverged: untraced %+v, traced %+v", i, pt[i], tt[i])
		}
	}
	rec := traced.Tracer().MetricSamples()
	if len(rec) != len(tt) {
		t.Fatalf("tracer recorded %d points, timeline has %d", len(rec), len(tt))
	}
	for i := range rec {
		if rec[i] != tt[i] {
			t.Fatalf("tracer point %d = %+v, timeline %+v", i, rec[i], tt[i])
		}
	}
	if plain.Tracer().MetricSamples() != nil {
		t.Fatal("untraced runtime has tracer samples")
	}
}
