package mapreduce

import (
	"fmt"
	"slices"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/sim"
)

// stragglerRig builds a cluster where node 0 runs at 1/20th speed, and
// a job whose splits land evenly across nodes, so the splits placed on
// node 0 straggle badly.
func stragglerRig(t *testing.T, speculative bool) (*sim.Engine, *JobTracker, *Job) {
	t.Helper()
	eng, jt, fs := stragglerCluster(speculative)
	job := jt.Submit(idleMapJob(), SplitsForFile(stragglerFile(t, fs, "in", 40)))
	return eng, jt, job
}

// stragglerCluster builds the paper cluster with node 0 at 1/20th speed
// and CPU-dominated map tasks (10s on a healthy node, 200s on the
// straggler), so the slowdown threshold is actually crossed.
func stragglerCluster(speculative bool) (*sim.Engine, *JobTracker, *dfs.DFS) {
	cfg := cluster.PaperConfig()
	cfg.NodeSpeedFactors = make([]float64, cluster.Nodes)
	for i := range cfg.NodeSpeedFactors {
		cfg.NodeSpeedFactors[i] = 1
	}
	cfg.NodeSpeedFactors[0] = 0.05
	eng := sim.NewEngine()
	cl := cluster.New(eng, cfg)
	rc := DefaultConfig()
	rc.SpeculativeExecution = speculative
	rc.Costs.MapCPUPerRecordS = 2e-3
	return eng, NewJobTracker(cl, rc, nil), dfs.New(cl)
}

// stragglerFile stores a file of n blocks, each the same 5000 records.
func stragglerFile(t *testing.T, fs *dfs.DFS, name string, n int) *dfs.File {
	t.Helper()
	schema := data.NewSchema("V")
	recs := make([]data.Record, 5000)
	for i := range recs {
		recs[i] = data.NewRecord(schema, []data.Value{data.Int(int64(i))})
	}
	srcs := make([]data.Source, n)
	for b := range srcs {
		srcs[b] = data.NewSliceSource(schema, recs)
	}
	f, err := fs.Create(name, srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// idleMapJob is a job whose mapper emits nothing.
func idleMapJob() JobSpec {
	return JobSpec{NewMapper: func(*JobConf) Mapper {
		return MapperFunc(func(data.Record, *Collector) error { return nil })
	}}
}

// backupLaunches records every speculative attempt jt starts as
// "job.task@time".
func backupLaunches(jt *JobTracker) *[]string {
	var got []string
	jt.Subscribe(func(e TaskEvent) {
		if e.Type == EventMapStarted && e.Speculative {
			got = append(got, fmt.Sprintf("%d.%d@%.2f", e.JobID, e.TaskIndex, e.Time))
		}
	})
	return &got
}

func TestNodeSpeedFactorValidation(t *testing.T) {
	cfg := cluster.PaperConfig()
	cfg.NodeSpeedFactors = []float64{1, 1}
	if err := cfg.Validate(); err == nil {
		t.Error("wrong-length speed factors accepted")
	}
	cfg.NodeSpeedFactors = make([]float64, 10)
	if err := cfg.Validate(); err == nil {
		t.Error("zero speed factor accepted")
	}
}

func TestSpeculationRescuesStragglers(t *testing.T) {
	engOff, _, jobOff := stragglerRig(t, false)
	if !RunUntilDone(engOff, jobOff, 1e7) {
		t.Fatal("baseline job stuck")
	}
	engOn, jtOn, jobOn := stragglerRig(t, true)
	launches := backupLaunches(jtOn)
	if !RunUntilDone(engOn, jobOn, 1e7) {
		t.Fatal("speculative job stuck")
	}
	// Node 0's four tasks start a heartbeat apart, so each crosses the
	// straggler threshold (twice the job's median map time, once three
	// maps completed) a second after the one before.
	if want := []string{"0.0@22.20", "0.1@23.20", "0.2@24.20", "0.3@25.20"}; !slices.Equal(*launches, want) {
		t.Fatalf("backups launched %v, want %v", *launches, want)
	}
	if jobOn.State() != StateSucceeded {
		t.Fatalf("state = %v", jobOn.State())
	}
	if jobOn.Counters.SpeculativeLaunches == 0 {
		t.Fatal("no speculative attempts launched despite a 20x straggler")
	}
	// Backup attempts must make the job materially faster.
	if jobOn.ResponseTime() >= jobOff.ResponseTime()*0.8 {
		t.Fatalf("speculation did not help: %v vs %v (without)",
			jobOn.ResponseTime(), jobOff.ResponseTime())
	}
	// Output identical either way (each task counted exactly once).
	if jobOn.Counters.CompletedMaps != 40 || jobOn.Counters.MapInputRecords != 200_000 {
		t.Fatalf("counters double-counted: %+v", jobOn.Counters)
	}
	// Losing attempts were killed, and slots fully released at the end.
	if jobOn.Counters.KilledAttempts == 0 {
		t.Fatal("no attempt was ever killed")
	}
}

// TestSpeculativeBackupOrderDeterministic: when several stragglers
// qualify at once, the backups launch lowest task index first, run
// after run. Job B's 300 maps hold every free slot until about 100 s,
// by when all four of job A's node-0 tasks qualify together.
func TestSpeculativeBackupOrderDeterministic(t *testing.T) {
	want := []string{"0.0@100.50", "0.1@100.61", "0.2@100.71", "0.3@100.81"}
	for run := 0; run < 8; run++ {
		eng, jt, fs := stragglerCluster(true)
		a, b := stragglerFile(t, fs, "a", 40), stragglerFile(t, fs, "b", 300)
		launches := backupLaunches(jt)
		jobA := jt.Submit(idleMapJob(), SplitsForFile(a))
		jt.Submit(idleMapJob(), SplitsForFile(b))
		if !RunUntilDone(eng, jobA, 1e7) {
			t.Fatal("job A stuck")
		}
		if !slices.Equal(*launches, want) {
			t.Fatalf("run %d: backups launched %v, want %v", run, *launches, want)
		}
	}
}

func TestSpeculationDisabledByDefault(t *testing.T) {
	eng, _, job := stragglerRig(t, false)
	RunUntilDone(eng, job, 1e7)
	if job.Counters.SpeculativeLaunches != 0 {
		t.Fatal("speculation ran while disabled")
	}
}

func TestSpeculationSlotAccounting(t *testing.T) {
	eng, jt, job := stragglerRig(t, true)
	for !job.Done() && eng.Step() {
		cs := jt.ClusterStatus()
		if cs.OccupiedMapSlots < 0 || cs.OccupiedMapSlots > cs.TotalMapSlots {
			t.Fatalf("slot accounting corrupt: %+v", cs)
		}
	}
	if cs := jt.ClusterStatus(); cs.OccupiedMapSlots != 0 {
		t.Fatalf("slots leaked after completion: %+v", cs)
	}
}

func TestSpeculationWithDynamicJob(t *testing.T) {
	// Speculation applies to dynamic jobs between increments too: no
	// pending maps while input is open is exactly the straggler window.
	cfg := cluster.PaperConfig()
	cfg.NodeSpeedFactors = make([]float64, cluster.Nodes)
	for i := range cfg.NodeSpeedFactors {
		cfg.NodeSpeedFactors[i] = 1
	}
	cfg.NodeSpeedFactors[1] = 0.05
	eng := sim.NewEngine()
	cl := cluster.New(eng, cfg)
	f := stragglerFile(t, dfs.New(cl), "in", 20)
	rc := DefaultConfig()
	rc.SpeculativeExecution = true
	jt := NewJobTracker(cl, rc, nil)
	conf := NewJobConf()
	conf.SetBool(ConfDynamicJob, true)
	job := jt.Submit(JobSpec{
		Conf: conf,
		NewMapper: func(*JobConf) Mapper {
			return MapperFunc(func(data.Record, *Collector) error { return nil })
		},
	}, SplitsForFile(f))
	// Let the initial splits run long enough for speculation to kick
	// in, then close the input.
	eng.RunUntil(120)
	if err := jt.EndOfInput(job); err != nil {
		t.Fatal(err)
	}
	if !RunUntilDone(eng, job, 1e7) {
		t.Fatal("dynamic job stuck")
	}
	if job.Counters.CompletedMaps != 20 {
		t.Fatalf("completed = %d", job.Counters.CompletedMaps)
	}
}
