package qstats

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/core"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/diag"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/sampling"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/trace"
)

// sparseMapper emits one record in seven, so sampling jobs need several
// grows to reach k.
func sparseMapper(*mapreduce.JobConf) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(r data.Record, c *mapreduce.Collector) error {
		if r.At(0).AsInt()%7 == 0 {
			c.Emit("k", r)
		}
		return nil
	})
}

// TestPerQueryDiagnosesMatchPostRunReport runs concurrent tracked
// queries, dynamic under every built-in policy and static, with
// injected attempt failures, and requires each query's diagnosis to
// equal the post-run report's entry for its job.
func TestPerQueryDiagnosesMatchPostRunReport(t *testing.T) {
	for _, speculative := range []bool{false, true} {
		t.Run(fmt.Sprintf("speculative=%v", speculative), func(t *testing.T) {
			eng := sim.NewEngine()
			ccfg := cluster.PaperConfig()
			// A slow node and CPU-bound maps give speculation stragglers
			// to back up.
			ccfg.NodeSpeedFactors = make([]float64, cluster.Nodes)
			for i := range ccfg.NodeSpeedFactors {
				ccfg.NodeSpeedFactors[i] = 1
			}
			ccfg.NodeSpeedFactors[0] = 0.05
			cl := cluster.New(eng, ccfg)
			cfg := mapreduce.DefaultConfig()
			cfg.Costs.MapCPUPerRecordS = 2e-3
			cfg.Trace = trace.Config{Enabled: true, Capacity: 1 << 20}
			cfg.SpeculativeExecution = speculative
			cfg.FailureInjector = func(j *mapreduce.Job, mt *mapreduce.MapTask) bool {
				return mt.Attempts == 1 && (mt.Index+j.ID)%5 == 2
			}
			jt := mapreduce.NewJobTracker(cl, cfg, nil)
			f := mkFile(t, dfs.New(cl), "in", 40, 300)
			r := NewRegistry(jt)

			policies := []string{core.PolicyLA, core.PolicyHA, core.PolicyMA, core.PolicyC, core.PolicyHadoop, ""}
			ks := []int64{20, 300, 1000, 5000}
			var jobs []*mapreduce.Job
			for i := 0; i < 14; i++ {
				k := ks[i%len(ks)]
				conf := mapreduce.NewJobConf()
				conf.SetInt(mapreduce.ConfSampleSize, k)
				id := r.AllocID()
				conf.Set(mapreduce.ConfQueryID, id)
				spec := mapreduce.JobSpec{Conf: conf, NewMapper: sparseMapper}
				splits := mapreduce.SplitsForFile(f)
				var job *mapreduce.Job
				if name := policies[i%len(policies)]; name == "" {
					job = jt.Submit(spec, splits)
				} else {
					pol, err := core.DefaultRegistry().Get(name)
					if err != nil {
						t.Fatal(err)
					}
					c, err := core.SubmitDynamic(jt, spec, splits, sampling.NewProvider(k, int64(i)), pol)
					if err != nil {
						t.Fatal(err)
					}
					job = c.Job()
				}
				r.Register(id, job, "SELECT V FROM t WHERE p LIMIT k", len(splits))
				jobs = append(jobs, job)
			}
			if !mapreduce.RunAllUntilDone(eng, jobs, 1e7) {
				t.Fatal("jobs did not finish")
			}

			tr := jt.Tracer()
			if tr.Dropped() != 0 {
				t.Fatalf("ring dropped %d spans", tr.Dropped())
			}
			outcomes := map[string]int{}
			for _, s := range tr.Spans() {
				if s.Name == trace.SpanMapAttempt {
					outcomes[s.Outcome]++
				}
			}
			if outcomes[trace.OutcomeFailed] == 0 || (speculative && outcomes[trace.OutcomeKilled] == 0) {
				t.Fatalf("map attempt outcomes %v: the run did not exercise failures and speculation", outcomes)
			}
			verdicts := map[string]int{}
			for _, d := range tr.PolicyDecisions() {
				verdicts[d.Verdict]++
			}
			if verdicts[trace.VerdictGrow] == 0 || verdicts[trace.VerdictEOI] == 0 {
				t.Fatalf("policy verdicts %v: no dynamic growth", verdicts)
			}

			want := map[int]diag.JobDiagnosis{}
			for _, d := range diag.FromTracer(tr).Jobs {
				want[d.JobID] = d
			}
			recs := r.Dump().Queries
			if len(recs) != len(jobs) {
				t.Fatalf("%d finished records for %d jobs", len(recs), len(jobs))
			}
			for _, rec := range recs {
				if rec.Diagnosis == nil {
					t.Fatalf("%s (job %d): no diagnosis: %s", rec.ID, rec.JobID, rec.DiagError)
				}
				if w, ok := want[rec.JobID]; !ok || !reflect.DeepEqual(*rec.Diagnosis, w) {
					t.Fatalf("%s (job %d): per-query diagnosis differs from the post-run report\ngot  %+v\nwant %+v",
						rec.ID, rec.JobID, *rec.Diagnosis, w)
				}
			}
		})
	}
}

// runViews runs 60 tracked queries submitted at staggered virtual
// times. With reader set, a second goroutine loops over Dump,
// OutcomesSince, PolicyStats and Totals while the engine runs, and
// fails the test if a finished record in a dump lacks a diagnosis or
// the outcome cursor skips or repeats a query. It returns the final
// dump with its wall-clock fields cleared.
func runViews(t *testing.T, reader bool) Dump {
	eng, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 12, 60)
	r := NewRegistry(jt)
	const n = 60
	policies := []string{"LA", "HA", "C", ""}
	var jobs []*mapreduce.Job
	for i := 0; i < n; i++ {
		eng.At(1.5*float64(i), func() {
			job, _ := submitTracked(t, r, jt, f, int64(50+10*i), policies[i%len(policies)])
			jobs = append(jobs, job)
		})
	}

	// simMu is the simulation lock: Dump reads the engine clock, so it
	// must not run while the engine steps.
	var simMu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if reader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seq int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				simMu.Lock()
				d := r.Dump()
				simMu.Unlock()
				for _, q := range d.Queries {
					if q.State != StateRunning && q.Diagnosis == nil && q.DiagError == "" {
						t.Errorf("Dump returned finished %s without a diagnosis", q.ID)
						return
					}
				}
				outs, next := r.OutcomesSince(nil, seq)
				if next-seq != int64(len(outs)) {
					t.Errorf("OutcomesSince(%d) returned %d outcomes and cursor %d", seq, len(outs), next)
					return
				}
				seq = next
				r.PolicyStats()
				r.Totals()
			}
		}()
	}
	allDone := func() bool {
		for _, j := range jobs {
			if !j.Done() {
				return false
			}
		}
		return len(jobs) == n
	}
	for {
		simMu.Lock()
		stepped := !allDone() && eng.Step()
		simMu.Unlock()
		if !stepped {
			break
		}
	}
	close(stop)
	wg.Wait()
	if !allDone() {
		t.Fatal("queries did not finish")
	}

	d := r.Dump()
	d.WallTimeS = 0
	for i := range d.Policies {
		p := &d.Policies[i]
		p.QPS, p.WallP50S, p.WallP90S, p.WallP99S, p.WallMaxS = 0, 0, 0, 0, 0
	}
	for i := range d.Queries {
		q := &d.Queries[i]
		q.SubmitWall, q.FirstMatchWall, q.LimitHitWall, q.FinishWall, q.LatencyWallS = 0, 0, 0, 0, 0
	}
	return d
}

// TestRegistryViewsUnderConcurrency checks that views racing the engine
// never expose a finished record before its diagnosis, and that reading
// does not change what the registry records.
func TestRegistryViewsUnderConcurrency(t *testing.T) {
	quiet := runViews(t, false)
	read := runViews(t, true)
	if quiet.Finished != 60 || len(quiet.Queries) != 60 || len(quiet.InFlight) != 0 {
		t.Fatalf("dump: %d finished, %d records, %d in flight", quiet.Finished, len(quiet.Queries), len(quiet.InFlight))
	}
	for _, q := range quiet.Queries {
		if q.Diagnosis == nil {
			t.Fatalf("%s: no diagnosis: %s", q.ID, q.DiagError)
		}
	}
	if !reflect.DeepEqual(quiet, read) {
		t.Fatal("a concurrent reader changed the final dump")
	}
}

// TestPartialBatchWaitsForAView: finishing fewer queries than a batch
// starts no diagnosis goroutine, and reading their outcomes, as the
// tsdb tick does each interval, neither waits for nor diagnoses them.
// The next Dump diagnoses them all.
func TestPartialBatchWaitsForAView(t *testing.T) {
	eng, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 12, 60)
	r := NewRegistry(jt)
	var jobs []*mapreduce.Job
	for i := 0; i < diagBatch-1; i++ {
		job, _ := submitTracked(t, r, jt, f, int64(50+10*i), "LA")
		jobs = append(jobs, job)
	}
	if !mapreduce.RunAllUntilDone(eng, jobs, 1e7) {
		t.Fatal("queries did not finish")
	}
	idle := func(when string) {
		t.Helper()
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.diagRunning || len(r.diagQueue) != diagBatch-1 {
			t.Fatalf("%s: diagnosis goroutine running %v, %d queued; want idle with %d queued",
				when, r.diagRunning, len(r.diagQueue), diagBatch-1)
		}
		for _, rec := range r.records {
			if rec.Diagnosis != nil || rec.DiagError != "" {
				t.Fatalf("%s: %s diagnosed", when, rec.ID)
			}
		}
	}
	idle("after the finishes")
	outs, next := r.OutcomesSince(nil, 0)
	if len(outs) != diagBatch-1 || next != diagBatch-1 {
		t.Fatalf("OutcomesSince: %d outcomes, cursor %d; want %d", len(outs), next, diagBatch-1)
	}
	for i, o := range outs {
		if o.Policy != "LA" || o.LatencyVirtualS <= 0 || o.Rows == 0 {
			t.Fatalf("outcome %d: %+v", i, o)
		}
	}
	idle("after OutcomesSince")
	d := r.Dump()
	if len(d.Queries) != diagBatch-1 {
		t.Fatalf("Dump: %d queries", len(d.Queries))
	}
	for _, q := range d.Queries {
		if q.Diagnosis == nil {
			t.Fatalf("Dump: %s has no diagnosis: %s", q.ID, q.DiagError)
		}
	}
}
