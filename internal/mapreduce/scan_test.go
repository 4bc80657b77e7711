package mapreduce

import (
	"fmt"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/mapreduce/executor"
	"dynamicmr/internal/sim"
)

// newScanRig builds a testRig whose JobTracker runs pure scans on the
// given pool (nil = inline).
func newScanRig(t *testing.T, pool *executor.Pool) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	cfg := DefaultConfig()
	cfg.ScanExecutor = pool
	return &testRig{eng: eng, cl: cl, fs: dfs.New(cl), jt: NewJobTracker(cl, cfg, nil)}
}

// scanSpec is a pure (MemoKey-declaring) job spread over several
// reduce partitions, so both the executor join path and the byPart
// partitioning run.
func scanSpec(memoKey string) JobSpec {
	conf := NewJobConf()
	conf.SetInt(ConfNumReduces, 4)
	return JobSpec{
		Conf:       conf,
		NewMapper:  func(*JobConf) Mapper { return countMapper{} },
		NewReducer: func(*JobConf) Reducer { return IdentityReducer },
		MemoKey:    memoKey,
	}
}

// jobFingerprint flattens a job's observable result for comparison:
// every output pair in order plus the counters the experiments report.
// Virtual response time is compared separately where it is expected to
// match: two jobs on one rig submit at different heartbeat phases, so
// only same-submission-time runs have identical timings.
func jobFingerprint(t *testing.T, j *Job) string {
	t.Helper()
	s := fmt.Sprintf("state=%v in=%d out=%d maps=%d\n",
		j.State(), j.Counters.MapInputRecords,
		j.Counters.MapOutputRecords, j.Counters.CompletedMaps)
	for _, kv := range j.Output() {
		s += fmt.Sprintf("%s=%s,%s\n", kv.Key,
			kv.Value.MustGet("K").String(), kv.Value.MustGet("V").String())
	}
	return s
}

// TestScanExecutorOutputIdentical runs the same pure job inline and on
// 1- and 8-worker pools: outputs, counters and virtual time must be
// byte-identical — the executor may only change wall-clock time.
func TestScanExecutorOutputIdentical(t *testing.T) {
	var prints []string
	for _, workers := range []int{0, 1, 8} {
		pool := executor.NewPool(workers)
		r := newScanRig(t, pool)
		f := r.makeFile(t, "in", 8, 100)
		job := r.jt.Submit(scanSpec("scan|identical"), SplitsForFile(f))
		if !RunUntilDone(r.eng, job, 1e6) || job.State() != StateSucceeded {
			t.Fatalf("workers=%d: state=%v failure=%q", workers, job.State(), job.Failure())
		}
		pool.Close()
		prints = append(prints, fmt.Sprintf("rt=%v\n%s", job.ResponseTime(), jobFingerprint(t, job)))
	}
	if prints[0] != prints[1] || prints[0] != prints[2] {
		t.Fatalf("executor changed observable output:\ninline:\n%s\n1 worker:\n%s\n8 workers:\n%s",
			prints[0], prints[1], prints[2])
	}
}

// TestScanPurityGate checks the opt-in: jobs without a MemoKey never
// enter the pool (their mappers may close over mutable state), while a
// MemoKey-declaring job over the same splits does.
func TestScanPurityGate(t *testing.T) {
	pool := executor.NewPool(2)
	defer pool.Close()
	r := newScanRig(t, pool)
	f := r.makeFile(t, "in", 8, 50)

	impure := r.jt.Submit(scanSpec(""), SplitsForFile(f))
	if !RunUntilDone(r.eng, impure, 1e6) || impure.State() != StateSucceeded {
		t.Fatalf("impure job: state=%v", impure.State())
	}
	if sub, _, _ := pool.Stats(); sub != 0 {
		t.Fatalf("impure job entered the pool: %d scans submitted", sub)
	}

	pure := r.jt.Submit(scanSpec("scan|gate"), SplitsForFile(f))
	if !RunUntilDone(r.eng, pure, 1e6) || pure.State() != StateSucceeded {
		t.Fatalf("pure job: state=%v", pure.State())
	}
	if sub, _, _ := pool.Stats(); sub != 8 {
		t.Fatalf("pure job submitted %d scans, want 8", sub)
	}
	if len(impure.Output()) != len(pure.Output()) {
		t.Fatalf("gate changed output: %d vs %d pairs", len(impure.Output()), len(pure.Output()))
	}
}

// TestScanExecutorMemoised checks the cache sits behind the executor:
// a second identical job joins resolved futures without resubmitting.
func TestScanExecutorMemoised(t *testing.T) {
	pool := executor.NewPool(2)
	defer pool.Close()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	cfg := DefaultConfig()
	cfg.ScanExecutor = pool
	cfg.MapOutputCache = NewMapOutputCache()
	r := &testRig{eng: eng, cl: cl, fs: dfs.New(cl), jt: NewJobTracker(cl, cfg, nil)}
	f := r.makeFile(t, "in", 8, 50)

	j1 := r.jt.Submit(scanSpec("scan|memo"), SplitsForFile(f))
	if !RunUntilDone(r.eng, j1, 1e6) || j1.State() != StateSucceeded {
		t.Fatalf("job1: state=%v", j1.State())
	}
	sub1, _, _ := pool.Stats()
	if sub1 != 8 {
		t.Fatalf("job1 submitted %d scans, want 8", sub1)
	}
	j2 := r.jt.Submit(scanSpec("scan|memo"), SplitsForFile(f))
	if !RunUntilDone(r.eng, j2, 1e6) || j2.State() != StateSucceeded {
		t.Fatalf("job2: state=%v", j2.State())
	}
	if sub2, _, _ := pool.Stats(); sub2 != sub1 {
		t.Fatalf("memoised job resubmitted scans: %d -> %d", sub1, sub2)
	}
	if jobFingerprint(t, j1) != jobFingerprint(t, j2) {
		t.Fatal("cache hit changed observable output")
	}
}

// scanStragglerRig is stragglerRig with a MemoKey-declaring spec and a
// scan-executor pool, so speculative twin attempts race through the
// executor and losing attempts abandon in-flight futures. Run under
// -race.
func scanStragglerRig(t *testing.T, pool *executor.Pool) (*sim.Engine, *Job) {
	t.Helper()
	cfg := cluster.PaperConfig()
	cfg.NodeSpeedFactors = make([]float64, cluster.Nodes)
	for i := range cfg.NodeSpeedFactors {
		cfg.NodeSpeedFactors[i] = 1
	}
	cfg.NodeSpeedFactors[0] = 0.05
	eng := sim.NewEngine()
	cl := cluster.New(eng, cfg)
	fs := dfs.New(cl)
	schema := data.NewSchema("V")
	var srcs []data.Source
	for b := 0; b < 40; b++ {
		recs := make([]data.Record, 5000)
		for i := range recs {
			recs[i] = data.NewRecord(schema, []data.Value{data.Int(int64(i))})
		}
		srcs = append(srcs, data.NewSliceSource(schema, recs))
	}
	f, err := fs.Create("in", srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultConfig()
	rc.SpeculativeExecution = true
	rc.Costs.MapCPUPerRecordS = 2e-3
	rc.ScanExecutor = pool
	jt := NewJobTracker(cl, rc, nil)
	job := jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper {
			return MapperFunc(func(data.Record, *Collector) error { return nil })
		},
		MemoKey: "scan|straggler",
	}, SplitsForFile(f))
	return eng, job
}

// TestScanExecutorWithSpeculation drives speculative kills mid-scan
// through the pool: killed attempts abandon their futures
// (singleflight shares the scan with the surviving twin) and the job's
// virtual outcome is identical to the inline run.
func TestScanExecutorWithSpeculation(t *testing.T) {
	engInline, jobInline := scanStragglerRig(t, nil)
	if !RunUntilDone(engInline, jobInline, 1e7) {
		t.Fatal("inline job stuck")
	}
	pool := executor.NewPool(4)
	defer pool.Close()
	engPool, jobPool := scanStragglerRig(t, pool)
	if !RunUntilDone(engPool, jobPool, 1e7) {
		t.Fatal("pooled job stuck")
	}
	if jobPool.State() != StateSucceeded {
		t.Fatalf("state = %v", jobPool.State())
	}
	if jobPool.Counters.SpeculativeLaunches == 0 || jobPool.Counters.KilledAttempts == 0 {
		t.Fatalf("speculation did not race under the pool: %+v", jobPool.Counters)
	}
	if jobPool.Counters.CompletedMaps != 40 || jobPool.Counters.MapInputRecords != 200_000 {
		t.Fatalf("counters double-counted: %+v", jobPool.Counters)
	}
	if jobPool.ResponseTime() != jobInline.ResponseTime() {
		t.Fatalf("executor changed virtual time under speculation: %v vs %v",
			jobPool.ResponseTime(), jobInline.ResponseTime())
	}
}
