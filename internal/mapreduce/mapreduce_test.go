package mapreduce

import (
	"fmt"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/sim"
)

// testRig bundles a small simulated cluster.
type testRig struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	fs  *dfs.DFS
	jt  *JobTracker
}

func newRig(t *testing.T, sched TaskScheduler) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	return &testRig{eng: eng, cl: cl, fs: dfs.New(cl), jt: NewJobTracker(cl, DefaultConfig(), sched)}
}

var kvSchema = data.NewSchema("K", "V")

// makeFile stores a file with `blocks` blocks of `recsEach` records;
// record values are sequential integers.
func (r *testRig) makeFile(t *testing.T, name string, blocks, recsEach int) *dfs.File {
	t.Helper()
	var srcs []data.Source
	v := int64(0)
	for b := 0; b < blocks; b++ {
		recs := make([]data.Record, recsEach)
		for i := range recs {
			recs[i] = data.NewRecord(kvSchema, []data.Value{data.Int(v), data.Int(v * 10)})
			v++
		}
		srcs = append(srcs, data.NewSliceSource(kvSchema, recs))
	}
	f, err := r.fs.Create(name, srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// countMapper emits every record under a per-record key.
type countMapper struct{}

func (countMapper) Map(rec data.Record, out *Collector) error {
	out.Emit(rec.MustGet("K").String(), rec)
	return nil
}

// dummyKeyMapper emits all records under one key.
type dummyKeyMapper struct{}

func (dummyKeyMapper) Map(rec data.Record, out *Collector) error {
	out.Emit("dummy", rec)
	return nil
}

func TestJobConfTypedAccessors(t *testing.T) {
	c := NewJobConf()
	c.Set("s", "x")
	c.SetInt("i", 42)
	c.SetBool("b", true)
	if c.Get("s", "") != "x" || c.GetInt("i", 0) != 42 || !c.GetBool("b", false) {
		t.Fatal("round-trip failed")
	}
	if c.Get("missing", "d") != "d" || c.GetInt("missing", 7) != 7 {
		t.Fatal("defaults failed")
	}
	c.Set("badint", "zz")
	if c.GetInt("badint", 3) != 3 {
		t.Fatal("malformed int did not fall back")
	}
	if len(c.Keys()) != 4 {
		t.Fatalf("Keys = %v", c.Keys())
	}
	if !c.Has("s") || c.Has("nope") {
		t.Fatal("Has misreported")
	}
}

func TestStaticJobRunsToCompletion(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 8, 100)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatalf("job did not finish: state=%v", job.State())
	}
	if job.State() != StateSucceeded {
		t.Fatalf("state = %v, failure = %q", job.State(), job.Failure())
	}
	if got := len(job.Output()); got != 800 {
		t.Fatalf("output pairs = %d, want 800", got)
	}
	if job.Counters.MapInputRecords != 800 || job.Counters.CompletedMaps != 8 {
		t.Fatalf("counters = %+v", job.Counters)
	}
	if job.ResponseTime() <= 0 {
		t.Fatalf("response time %v", job.ResponseTime())
	}
	if job.MapDoneTime <= job.SubmitTime || job.FinishTime < job.MapDoneTime {
		t.Fatalf("phase times inconsistent: %v %v %v", job.SubmitTime, job.MapDoneTime, job.FinishTime)
	}
}

func TestReduceGroupsByKey(t *testing.T) {
	r := newRig(t, nil)
	// 4 blocks, each with the same 3 keys (K values 0,1,2 repeat).
	var srcs []data.Source
	for b := 0; b < 4; b++ {
		recs := make([]data.Record, 3)
		for i := range recs {
			recs[i] = data.NewRecord(kvSchema, []data.Value{data.Int(int64(i)), data.Int(int64(b))})
		}
		srcs = append(srcs, data.NewSliceSource(kvSchema, recs))
	}
	f, _ := r.fs.Create("in", srcs, 1)
	type group struct {
		key string
		n   int
	}
	var groups []group
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return countMapper{} },
		NewReducer: func(*JobConf) Reducer {
			return ReducerFunc(func(key string, vals []data.Record, out *Collector) error {
				groups = append(groups, group{key, len(vals)})
				out.Emit(key, vals[0])
				return nil
			})
		},
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job did not finish")
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %v, want 3 keys", groups)
	}
	for _, g := range groups {
		if g.n != 4 {
			t.Fatalf("key %s has %d values, want 4", g.key, g.n)
		}
	}
}

func TestMultipleReduces(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 4, 50)
	conf := NewJobConf()
	conf.SetInt(ConfNumReduces, 4)
	job := r.jt.Submit(JobSpec{
		Conf:      conf,
		NewMapper: func(*JobConf) Mapper { return countMapper{} },
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job did not finish")
	}
	if job.numReduces != 4 {
		t.Fatalf("NumReduces = %d", job.numReduces)
	}
	if len(job.Output()) != 200 {
		t.Fatalf("output = %d, want 200", len(job.Output()))
	}
}

func TestDynamicJobIncrementalInput(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 10, 20)
	splits := SplitsForFile(f)
	conf := NewJobConf()
	conf.SetBool(ConfDynamicJob, true)
	job := r.jt.Submit(JobSpec{
		Conf:      conf,
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
	}, splits[:2])

	// Drive a while: the job must NOT reach the reduce phase, because
	// input is still open even after both maps finish.
	for i := 0; i < 2000 && r.eng.Step(); i++ {
		if r.eng.Now() > 60 {
			break
		}
	}
	if job.CompletedMaps() != 2 {
		t.Fatalf("completed = %d, want 2", job.CompletedMaps())
	}
	if job.State() != StateMapPhase {
		t.Fatalf("dynamic job advanced to %v before end-of-input", job.State())
	}

	if err := r.jt.AddSplits(job, splits[2:5]); err != nil {
		t.Fatal(err)
	}
	if err := r.jt.EndOfInput(job); err != nil {
		t.Fatal(err)
	}
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job did not finish after end-of-input")
	}
	if job.CompletedMaps() != 5 {
		t.Fatalf("completed = %d, want 5", job.CompletedMaps())
	}
	if len(job.Output()) != 100 {
		t.Fatalf("output = %d, want 100 (5 splits x 20)", len(job.Output()))
	}
	// AddSplits after close must fail.
	if err := r.jt.AddSplits(job, splits[5:6]); err == nil {
		t.Fatal("AddSplits after EndOfInput accepted")
	}
	// EndOfInput is idempotent on a done job? (done -> error)
	if err := r.jt.EndOfInput(job); err == nil {
		t.Fatal("EndOfInput on finished job accepted")
	}
}

func TestStaticJobClosedAtSubmit(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 2, 10)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
	}, SplitsForFile(f))
	if !job.endOfInput {
		t.Fatal("static job input not closed at submit")
	}
	if err := r.jt.AddSplits(job, nil); err == nil {
		t.Fatal("AddSplits on static job accepted")
	}
}

func TestEmptyJobCompletes(t *testing.T) {
	r := newRig(t, nil)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
	}, nil)
	if !RunUntilDone(r.eng, job, 1e5) {
		t.Fatal("empty job did not finish")
	}
	if len(job.Output()) != 0 {
		t.Fatal("empty job produced output")
	}
}

func TestTaskFailureRetries(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 4, 10)
	fails := 0
	r.jt.cfg.FailureInjector = func(j *Job, mt *MapTask) bool {
		// First attempt of task 2 fails once.
		if mt.Index == 2 && mt.Attempts == 1 {
			fails++
			return true
		}
		return false
	}
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job did not finish")
	}
	if job.State() != StateSucceeded {
		t.Fatalf("state = %v", job.State())
	}
	if fails != 1 || job.Counters.FailedMapAttempts != 1 {
		t.Fatalf("failed attempts = %d (injected %d)", job.Counters.FailedMapAttempts, fails)
	}
	// Output complete despite the retry.
	if len(job.Output()) != 40 {
		t.Fatalf("output = %d, want 40", len(job.Output()))
	}
}

func TestTaskFailureExhaustsAttempts(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 2, 10)
	r.jt.cfg.FailureInjector = func(j *Job, mt *MapTask) bool { return mt.Index == 0 }
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job did not reach terminal state")
	}
	if job.State() != StateFailed {
		t.Fatalf("state = %v, want FAILED", job.State())
	}
	if job.Failure() == "" {
		t.Fatal("no failure description")
	}
	// Hadoop's default attempt limit.
	if job.Counters.FailedMapAttempts != 4 {
		t.Fatalf("attempts = %d, want 4", job.Counters.FailedMapAttempts)
	}
}

func TestMapperErrorFailsAttempt(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 1, 5)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper {
			return MapperFunc(func(data.Record, *Collector) error {
				return fmt.Errorf("boom")
			})
		},
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job did not reach terminal state")
	}
	if job.State() != StateFailed {
		t.Fatalf("state = %v", job.State())
	}
}

func TestReducerErrorFailsJob(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 1, 5)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
		NewReducer: func(*JobConf) Reducer {
			return ReducerFunc(func(string, []data.Record, *Collector) error {
				return fmt.Errorf("reduce boom")
			})
		},
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job did not reach terminal state")
	}
	if job.State() != StateFailed {
		t.Fatalf("state = %v", job.State())
	}
}

func TestSlotBoundRespected(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 100, 10)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
	}, SplitsForFile(f))
	maxRunning := 0
	for !job.Done() && r.eng.Step() {
		if n := len(job.runningMaps); n > maxRunning {
			maxRunning = n
		}
		cs := r.jt.ClusterStatus()
		if cs.OccupiedMapSlots > cs.TotalMapSlots {
			t.Fatalf("occupied %d > total %d", cs.OccupiedMapSlots, cs.TotalMapSlots)
		}
	}
	if maxRunning > 40 {
		t.Fatalf("running maps peaked at %d, slot bound is 40", maxRunning)
	}
	if maxRunning < 30 {
		t.Fatalf("running maps peaked at %d; cluster underused", maxRunning)
	}
}

func TestLocalityPreferred(t *testing.T) {
	r := newRig(t, nil)
	// 40 blocks spread round-robin over 40 disks: with FIFO and free
	// slots everywhere, nearly every map should be node-local.
	f := r.makeFile(t, "in", 40, 10)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job did not finish")
	}
	if job.Counters.LocalMaps < 30 {
		t.Fatalf("local maps = %d / 40; placement or locality preference broken", job.Counters.LocalMaps)
	}
}

func TestReplicationImprovesLocality(t *testing.T) {
	run := func(replication int) int64 {
		r := newRig(t, nil)
		var srcs []data.Source
		for b := 0; b < 12; b++ {
			recs := make([]data.Record, 10)
			for i := range recs {
				recs[i] = data.NewRecord(kvSchema, []data.Value{data.Int(int64(i)), data.Int(0)})
			}
			srcs = append(srcs, data.NewSliceSource(kvSchema, recs))
		}
		f, err := r.fs.Create("in", srcs, replication)
		if err != nil {
			t.Fatal(err)
		}
		job := r.jt.Submit(JobSpec{
			NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
		}, SplitsForFile(f))
		if !RunUntilDone(r.eng, job, 1e6) {
			t.Fatal("job stuck")
		}
		return job.Counters.LocalMaps
	}
	// With 12 blocks on 10 nodes, 3-way replication gives the
	// scheduler three local candidates per block; locality must not be
	// worse than unreplicated.
	if l3, l1 := run(3), run(1); l3 < l1 {
		t.Fatalf("replication reduced locality: %d (r=3) < %d (r=1)", l3, l1)
	}
}

func TestClusterStatusAvailableSlots(t *testing.T) {
	r := newRig(t, nil)
	cs := r.jt.ClusterStatus()
	if cs.TotalMapSlots != 40 || cs.AvailableMapSlots() != 40 {
		t.Fatalf("initial status %+v", cs)
	}
	f := r.makeFile(t, "in", 80, 10)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
	}, SplitsForFile(f))
	// Run until mid-flight.
	for i := 0; i < 5000 && !job.Done(); i++ {
		r.eng.Step()
		cs = r.jt.ClusterStatus()
		if cs.OccupiedMapSlots == cs.TotalMapSlots {
			break
		}
	}
	if cs.AvailableMapSlots() != cs.TotalMapSlots-cs.OccupiedMapSlots {
		t.Fatal("AvailableMapSlots arithmetic wrong")
	}
	RunUntilDone(r.eng, job, 1e6)
}

func TestFIFOOrdersJobs(t *testing.T) {
	r := newRig(t, NewFIFOScheduler())
	f1 := r.makeFile(t, "a", 60, 10)
	f2 := r.makeFile(t, "b", 60, 10)
	j1 := r.jt.Submit(JobSpec{NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} }}, SplitsForFile(f1))
	j2 := r.jt.Submit(JobSpec{NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} }}, SplitsForFile(f2))
	if !RunAllUntilDone(r.eng, []*Job{j1, j2}, 1e6) {
		t.Fatal("jobs did not finish")
	}
	if j1.FinishTime > j2.FinishTime {
		t.Fatalf("FIFO: job1 finished at %v after job2 at %v", j1.FinishTime, j2.FinishTime)
	}
}

func TestFairSharesBetweenUsers(t *testing.T) {
	r := newRig(t, NewFairScheduler())
	mk := func(name, user string) *Job {
		f := r.makeFile(t, name, 80, 10)
		conf := NewJobConf()
		conf.Set(ConfUser, user)
		return r.jt.Submit(JobSpec{Conf: conf, NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} }},
			SplitsForFile(f))
	}
	j1 := mk("a", "alice")
	j2 := mk("b", "bob")
	// Sample running-map counts mid-flight: both users should hold
	// slots concurrently (unlike FIFO, where job 2 would starve).
	bothRunning := false
	for !j1.Done() || !j2.Done() {
		if !r.eng.Step() {
			break
		}
		if len(j1.runningMaps) > 5 && len(j2.runningMaps) > 5 {
			bothRunning = true
		}
		if r.eng.Now() > 1e6 {
			break
		}
	}
	if !bothRunning {
		t.Fatal("fair scheduler never ran both users' jobs concurrently")
	}
}

func TestSlotOccupancyIntegralGrows(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 10, 10)
	job := r.jt.Submit(JobSpec{NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} }}, SplitsForFile(f))
	RunUntilDone(r.eng, job, 1e6)
	var occupied float64
	for _, tt := range r.jt.TaskTrackers() {
		occupied += tt.MapSlotIntegral()
	}
	if occupied <= 0 {
		t.Fatal("occupancy integral did not grow")
	}
	local, nonLocal := r.jt.LocalityStats()
	if local+nonLocal != 10 {
		t.Fatalf("locality stats %d+%d != 10", local, nonLocal)
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	r := newRig(t, nil)
	// 8 blocks of 50 records, every record keyed by K%3: without a
	// combiner the reduce sees 400 pairs; with one it sees <= 8*3.
	var srcs []data.Source
	for b := 0; b < 8; b++ {
		recs := make([]data.Record, 50)
		for i := range recs {
			recs[i] = data.NewRecord(kvSchema, []data.Value{data.Int(int64(i % 3)), data.Int(1)})
		}
		srcs = append(srcs, data.NewSliceSource(kvSchema, recs))
	}
	f, _ := r.fs.Create("in", srcs, 1)
	sumReducer := func(*JobConf) Reducer {
		return ReducerFunc(func(key string, vals []data.Record, out *Collector) error {
			var sum int64
			for _, v := range vals {
				sum += v.MustGet("V").AsInt()
			}
			out.Emit(key, data.NewRecord(kvSchema, []data.Value{data.Int(0), data.Int(sum)}))
			return nil
		})
	}
	job := r.jt.Submit(JobSpec{
		NewMapper:   func(*JobConf) Mapper { return countMapper{} },
		NewCombiner: sumReducer,
		NewReducer:  sumReducer,
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job stuck")
	}
	// Each block contributes at most 3 combined pairs.
	if job.Counters.ReduceInputRecs > 24 {
		t.Fatalf("reduce input %d pairs; combiner did not run", job.Counters.ReduceInputRecs)
	}
	// The final sums are correct: keys 0..2; key 0 appears 17 times per
	// block (i%3==0 for i in 0..49 -> 17), keys 1,2 appear 17 and 16.
	sums := map[string]int64{}
	for _, kv := range job.Output() {
		sums[kv.Key] = kv.Value.MustGet("V").AsInt()
	}
	if sums["0"] != 8*17 || sums["1"] != 8*17 || sums["2"] != 8*16 {
		t.Fatalf("sums = %v", sums)
	}
}

func TestCombinerErrorFailsAttempt(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 1, 5)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
		NewCombiner: func(*JobConf) Reducer {
			return ReducerFunc(func(string, []data.Record, *Collector) error {
				return fmt.Errorf("combiner boom")
			})
		},
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job did not reach terminal state")
	}
	if job.State() != StateFailed {
		t.Fatalf("state = %v", job.State())
	}
}

func TestRetire(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 4, 10)
	spec := JobSpec{NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} }}
	j1 := r.jt.Submit(spec, SplitsForFile(f))
	if err := r.jt.Retire(j1); err == nil {
		t.Fatal("retired a running job")
	}
	RunUntilDone(r.eng, j1, 1e6)
	if err := r.jt.Retire(j1); err != nil {
		t.Fatal(err)
	}
	if len(r.jt.Jobs()) != 0 {
		t.Fatalf("tracker still lists %d jobs", len(r.jt.Jobs()))
	}
	if j1.Output() != nil {
		t.Fatal("output not released")
	}
	// Tracker remains fully usable.
	f2 := r.makeFile(t, "in2", 4, 10)
	j2 := r.jt.Submit(spec, SplitsForFile(f2))
	if !RunUntilDone(r.eng, j2, 1e6) {
		t.Fatal("post-retire job did not finish")
	}
	if len(j2.Output()) != 40 {
		t.Fatalf("output = %d", len(j2.Output()))
	}
}

func TestRetireUnderFairScheduler(t *testing.T) {
	r := newRig(t, NewFairScheduler())
	f := r.makeFile(t, "in", 4, 10)
	job := r.jt.Submit(JobSpec{NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} }}, SplitsForFile(f))
	RunUntilDone(r.eng, job, 1e6)
	if err := r.jt.Retire(job); err != nil {
		t.Fatal(err)
	}
	fs := r.jt.Scheduler().(*FairScheduler)
	if len(fs.state) != 0 {
		t.Fatalf("fair scheduler retains %d job states", len(fs.state))
	}
}

func TestSplitMapperPath(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 3, 10)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return &splitCounter{} },
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job did not finish")
	}
	// splitCounter emits exactly one pair per split.
	if len(job.Output()) != 3 {
		t.Fatalf("output = %d, want 3", len(job.Output()))
	}
}

// splitCounter is a SplitMapper emitting one summary pair per split.
type splitCounter struct{}

func (s *splitCounter) Map(rec data.Record, out *Collector) error {
	panic("Map must not be called when MapSplit is implemented")
}

func (s *splitCounter) MapSplit(ctx *TaskContext, out *Collector) error {
	n := int64(0)
	ctx.Source.Scan(func(data.Record) bool { n++; return true })
	out.Emit("count", data.NewRecord(data.NewSchema("N"), []data.Value{data.Int(n)}))
	return nil
}

func TestSetupCleanupMapper(t *testing.T) {
	r := newRig(t, nil)
	f := r.makeFile(t, "in", 2, 5)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return &lifecycleMapper{} },
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e6) {
		t.Fatal("job did not finish")
	}
	// Per task: 5 record pairs + 1 cleanup marker; 2 tasks => 12.
	if len(job.Output()) != 12 {
		t.Fatalf("output = %d, want 12", len(job.Output()))
	}
}

type lifecycleMapper struct{ setup bool }

var markerSchema = data.NewSchema("M")

func marker(s string) data.Record {
	return data.NewRecord(markerSchema, []data.Value{data.Str(s)})
}

func (m *lifecycleMapper) Setup(ctx *TaskContext) error {
	m.setup = true
	return nil
}

func (m *lifecycleMapper) Map(rec data.Record, out *Collector) error {
	if !m.setup {
		return fmt.Errorf("Map before Setup")
	}
	out.Emit("k", rec)
	return nil
}

func (m *lifecycleMapper) Cleanup(out *Collector) error {
	out.Emit("k", marker("cleanup"))
	return nil
}
