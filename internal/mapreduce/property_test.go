package mapreduce

import (
	"math/rand"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/sim"
)

// TestRandomJobGeometryProperty runs jobs with randomised block
// counts, record counts, reduce counts and injected failures and
// checks the invariants that must hold for every completed job:
// output cardinality, counter consistency, slot conservation, and
// phase-time ordering.
func TestRandomJobGeometryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 25; trial++ {
		blocks := 1 + rng.Intn(60)
		recsEach := 1 + rng.Intn(40)
		reduces := 1 + rng.Intn(4)
		failTask := -1
		if rng.Intn(2) == 0 {
			failTask = rng.Intn(blocks)
		}

		eng := sim.NewEngine()
		cl := cluster.New(eng, cluster.PaperConfig())
		fs := dfs.New(cl)
		schema := data.NewSchema("V")
		var srcs []data.Source
		total := 0
		for b := 0; b < blocks; b++ {
			recs := make([]data.Record, recsEach)
			for i := range recs {
				recs[i] = data.NewRecord(schema, []data.Value{data.Int(int64(total))})
				total++
			}
			srcs = append(srcs, data.NewSliceSource(schema, recs))
		}
		f, err := fs.Create("in", srcs, 1+rng.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		if failTask >= 0 {
			cfg.FailureInjector = func(j *Job, mt *MapTask) bool {
				return mt.Index == failTask && mt.Attempts == 1
			}
		}
		var sched TaskScheduler
		if rng.Intn(2) == 0 {
			sched = fairWaiting(float64(rng.Intn(6)))
		}
		jt := NewJobTracker(cl, cfg, sched)
		conf := NewJobConf()
		conf.SetInt(ConfNumReduces, int64(reduces))
		job := jt.Submit(JobSpec{
			Conf: conf,
			NewMapper: func(*JobConf) Mapper {
				return MapperFunc(func(rec data.Record, out *Collector) error {
					out.Emit(rec.MustGet("V").String(), rec)
					return nil
				})
			},
		}, SplitsForFile(f))

		if !RunUntilDone(eng, job, 1e7) {
			t.Fatalf("trial %d: job stuck (blocks=%d reduces=%d)", trial, blocks, reduces)
		}
		if job.State() != StateSucceeded {
			t.Fatalf("trial %d: state %v (%s)", trial, job.State(), job.Failure())
		}
		if got := len(job.Output()); got != total {
			t.Fatalf("trial %d: output %d, want %d", trial, got, total)
		}
		c := job.Counters
		if c.MapInputRecords != int64(total) {
			t.Fatalf("trial %d: MapInputRecords %d, want %d", trial, c.MapInputRecords, total)
		}
		if c.CompletedMaps != int64(blocks) {
			t.Fatalf("trial %d: CompletedMaps %d, want %d", trial, c.CompletedMaps, blocks)
		}
		if c.LocalMaps+c.NonLocalMaps != int64(blocks) {
			t.Fatalf("trial %d: locality counters %d+%d != %d", trial, c.LocalMaps, c.NonLocalMaps, blocks)
		}
		if failTask >= 0 && c.FailedMapAttempts != 1 {
			t.Fatalf("trial %d: FailedMapAttempts %d, want 1", trial, c.FailedMapAttempts)
		}
		if job.MapDoneTime < job.SubmitTime || job.FinishTime < job.MapDoneTime {
			t.Fatalf("trial %d: phase times out of order", trial)
		}
		cs := jt.ClusterStatus()
		if cs.OccupiedMapSlots != 0 || cs.OccupiedReduces != 0 {
			t.Fatalf("trial %d: slots leaked: %+v", trial, cs)
		}
	}
}

// TestConcurrentJobsProperty checks cross-job isolation: several jobs
// with distinct data run together and each gets exactly its own
// records back.
func TestConcurrentJobsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	fs := dfs.New(cl)
	jt := NewJobTracker(cl, DefaultConfig(), fairWaiting(2))
	schema := data.NewSchema("JOB", "V")

	const jobs = 5
	var all []*Job
	for j := 0; j < jobs; j++ {
		blocks := 2 + rng.Intn(10)
		recs := 1 + rng.Intn(20)
		var srcs []data.Source
		for b := 0; b < blocks; b++ {
			rr := make([]data.Record, recs)
			for i := range rr {
				rr[i] = data.NewRecord(schema, []data.Value{data.Int(int64(j)), data.Int(int64(i))})
			}
			srcs = append(srcs, data.NewSliceSource(schema, rr))
		}
		f, err := fs.Create(string(rune('a'+j)), srcs, 1)
		if err != nil {
			t.Fatal(err)
		}
		conf := NewJobConf()
		conf.Set(ConfUser, string(rune('a'+j)))
		job := jt.Submit(JobSpec{
			Conf: conf,
			NewMapper: func(*JobConf) Mapper {
				return MapperFunc(func(rec data.Record, out *Collector) error {
					out.Emit("k", rec)
					return nil
				})
			},
		}, SplitsForFile(f))
		all = append(all, job)
	}
	if !RunAllUntilDone(eng, all, 1e7) {
		t.Fatal("jobs stuck")
	}
	for j, job := range all {
		want := job.Counters.MapInputRecords
		if int64(len(job.Output())) != want {
			t.Fatalf("job %d: output %d, want %d", j, len(job.Output()), want)
		}
		for _, kv := range job.Output() {
			if kv.Value.MustGet("JOB").AsInt() != int64(j) {
				t.Fatalf("job %d received record of job %d", j, kv.Value.MustGet("JOB").AsInt())
			}
		}
	}
}
