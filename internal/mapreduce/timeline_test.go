package mapreduce

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/trace"
)

// timelineFile stores a file whose blocks hold the given record counts.
func timelineFile(t *testing.T, fs *dfs.DFS, name string, sizes ...int) []Split {
	t.Helper()
	schema := data.NewSchema("V")
	srcs := make([]data.Source, len(sizes))
	for b, n := range sizes {
		recs := make([]data.Record, n)
		for i := range recs {
			recs[i] = data.NewRecord(schema, []data.Value{data.Int(int64(b*n + i))})
		}
		srcs[b] = data.NewSliceSource(schema, recs)
	}
	f, err := fs.Create(name, srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return SplitsForFile(f)
}

// everyHundredth emits every hundredth record under its value mod 5.
var everyHundredth = func(*JobConf) Mapper {
	return MapperFunc(func(rec data.Record, out *Collector) error {
		if v := rec.MustGet("V").AsInt(); v%100 == 0 {
			out.Emit(fmt.Sprint(v/100%5), rec)
		}
		return nil
	})
}

// attemptTimeline runs three traced jobs on a cluster whose node 5 runs
// at 0.4 speed, with speculation on, and returns every span recorded:
//   - job 0 has two reduces. Its task 1's first attempt fails by
//     injection and is re-executed. Tasks that land on node 5 straggle
//     past twice the median and get backups on another node, but finish
//     first, so each original kills its backup.
//   - job 1's reducer returns an error, which fails the job.
//   - job 2's small task 0 fails all four attempts, which fails the job
//     while its two large tasks run; they finish late.
func attemptTimeline(t *testing.T) []trace.Span {
	t.Helper()
	cfg := cluster.PaperConfig()
	cfg.NodeSpeedFactors = make([]float64, cluster.Nodes)
	for i := range cfg.NodeSpeedFactors {
		cfg.NodeSpeedFactors[i] = 1
	}
	cfg.NodeSpeedFactors[5] = 0.4
	eng := sim.NewEngine()
	cl := cluster.New(eng, cfg)
	fs := dfs.New(cl)
	rc := DefaultConfig()
	rc.SpeculativeExecution = true
	rc.Costs.MapCPUPerRecordS = 2e-3
	rc.Trace = trace.Config{Enabled: true}
	rc.FailureInjector = func(j *Job, t *MapTask) bool {
		return j.ID == 0 && t.Index == 1 && t.Attempts == 1 || j.ID == 2 && t.Index == 0
	}
	jt := NewJobTracker(cl, rc, nil)

	conf := NewJobConf()
	conf.SetInt(ConfNumReduces, 2)
	sizes := make([]int, 24)
	for i := range sizes {
		sizes[i] = 5000
	}
	jobs := []*Job{jt.Submit(JobSpec{Conf: conf, NewMapper: everyHundredth}, timelineFile(t, fs, "two-reduces", sizes...))}
	jobs = append(jobs, jt.Submit(JobSpec{NewMapper: everyHundredth,
		NewReducer: func(*JobConf) Reducer {
			return ReducerFunc(func(string, []data.Record, *Collector) error { return fmt.Errorf("reduce boom") })
		}}, timelineFile(t, fs, "failing-reduce", 5000, 5000)))
	jobs = append(jobs, jt.Submit(JobSpec{NewMapper: everyHundredth}, timelineFile(t, fs, "failing-map", 200, 5000, 5000)))
	for _, j := range jobs {
		if !RunUntilDone(eng, j, 1e6) {
			t.Fatalf("job %d did not finish", j.ID)
		}
	}
	if want := []JobState{StateSucceeded, StateFailed, StateFailed}; jobs[0].State() != want[0] ||
		jobs[1].State() != want[1] || jobs[2].State() != want[2] {
		t.Fatalf("job states %v %v %v, want %v", jobs[0].State(), jobs[1].State(), jobs[2].State(), want)
	}
	return jt.Tracer().Spans()
}

// formatSpan writes every field of a span on one line; floats print in
// their shortest exact form.
func formatSpan(s trace.Span) string {
	return fmt.Sprintf("%s %s %v %v job=%d task=%d attempt=%d node=%d spec=%t outcome=%q",
		s.Name, s.Cat, s.Start, s.End, s.Job, s.Task, s.Attempt, s.Node, s.Speculative, s.Outcome)
}

// TestAttemptTimelineGolden pins every span of attemptTimeline's run,
// field by field and in order, against a golden file: a change to how
// attempts are launched, staged, killed, failed or finished must not
// move a span. When they differ, the run's timeline is written to the
// temporary directory, to replace the golden file after a deliberate
// change to the timeline.
func TestAttemptTimelineGolden(t *testing.T) {
	spans := attemptTimeline(t)
	var b strings.Builder
	outcomes := make(map[string]int)
	for _, s := range spans {
		b.WriteString(formatSpan(s))
		b.WriteByte('\n')
		if s.Outcome != "" && s.Task >= 0 {
			spec := ""
			if s.Speculative {
				spec = " speculative"
			}
			outcomes[fmt.Sprintf("%s %s%s", s.Name, s.Outcome, spec)]++
		}
	}
	// The run covers every attempt path.
	for _, path := range []string{
		"map-attempt ok", "map-attempt failed", "map-attempt late", "map-attempt killed speculative",
		"reduce-attempt ok", "reduce-attempt failed",
	} {
		if outcomes[path] == 0 {
			t.Errorf("no %s span; outcomes %v", path, outcomes)
		}
	}
	if outcomes["reduce-attempt ok"] != 2 {
		t.Errorf("%d reduce-attempt ok spans, want 2", outcomes["reduce-attempt ok"])
	}
	const golden = "testdata/attempt_timeline.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() == string(want) {
		return
	}
	out := filepath.Join(os.TempDir(), filepath.Base(golden))
	if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
		t.Error(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(got)-1 && i < len(wantLines)-1 && got[i] == wantLines[i] {
		i++
	}
	t.Fatalf("%d spans, %d in %s; span %d differs\ngot  %s\nwant %s\nthis run's timeline is in %s",
		len(got)-1, len(wantLines)-1, golden, i, got[i], wantLines[i], out)
}
