package qstats

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/trace"
)

var schema = data.NewSchema("V")

func rig(t testing.TB, traced bool) (*sim.Engine, *dfs.DFS, *mapreduce.JobTracker) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	cfg := mapreduce.DefaultConfig()
	if traced {
		cfg.Trace = trace.Config{Enabled: true}
	}
	return eng, dfs.New(cl), mapreduce.NewJobTracker(cl, cfg, nil)
}

func mkFile(t testing.TB, fs *dfs.DFS, name string, blocks, recs int) *dfs.File {
	var srcs []data.Source
	for b := 0; b < blocks; b++ {
		rr := make([]data.Record, recs)
		for i := range rr {
			rr[i] = data.NewRecord(schema, []data.Value{data.Int(int64(i))})
		}
		srcs = append(srcs, data.NewSliceSource(schema, rr))
	}
	f, err := fs.Create(name, srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// echoMapper emits every record, so MapOutputRecords counts matches.
func echoMapper(*mapreduce.JobConf) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(r data.Record, c *mapreduce.Collector) error {
		c.Emit("k", r)
		return nil
	})
}

func submitTracked(t testing.TB, r *Registry, jt *mapreduce.JobTracker, f *dfs.File, k int64, policy string) (*mapreduce.Job, string) {
	conf := mapreduce.NewJobConf()
	conf.SetInt(mapreduce.ConfSampleSize, k)
	if policy != "" {
		conf.Set(mapreduce.ConfDynamicPolicy, policy)
	}
	id := r.AllocID()
	conf.Set(mapreduce.ConfQueryID, id)
	splits := mapreduce.SplitsForFile(f)
	job := jt.Submit(mapreduce.JobSpec{Conf: conf, NewMapper: echoMapper}, splits)
	r.Register(id, job, "SELECT V FROM t WHERE p LIMIT k", len(splits))
	return job, id
}

func TestRegistryLifecycle(t *testing.T) {
	eng, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 12, 100)
	r := NewRegistry(jt)

	job, id := submitTracked(t, r, jt, f, 200, "LA")
	if id != "q-000001" {
		t.Fatalf("id = %q", id)
	}
	if got := r.Dump().InFlight; len(got) != 1 || got[0].State != StateRunning {
		t.Fatalf("in-flight = %+v", got)
	}
	mapreduce.RunUntilDone(eng, job, 1e6)

	sums := r.Dump().Queries
	if len(sums) != 1 {
		t.Fatalf("summaries = %d", len(sums))
	}
	rec := sums[0]
	if rec.State != StateOK || rec.ID != id || rec.JobID != job.ID {
		t.Fatalf("record = %+v", rec)
	}
	if rec.Matches != 1200 || rec.RecordsRead != 1200 {
		t.Fatalf("matches/read = %d/%d, want 1200/1200", rec.Matches, rec.RecordsRead)
	}
	if rec.OvershootRows != 1000 {
		t.Fatalf("overshoot = %d, want 1000", rec.OvershootRows)
	}
	if rec.SplitsGrabbed != 12 || rec.SplitsScanned != 12 || rec.SplitsTotal != 12 {
		t.Fatalf("splits = %d/%d/%d", rec.SplitsGrabbed, rec.SplitsScanned, rec.SplitsTotal)
	}
	// Lifecycle ordering: submit <= first-match <= limit-hit <= finish.
	if rec.FirstMatchVT < rec.SubmitVT || rec.LimitHitVT < rec.FirstMatchVT || rec.FinishVT < rec.LimitHitVT {
		t.Fatalf("lifecycle out of order: %+v", rec)
	}
	if rec.LatencyVirtualS != rec.FinishVT-rec.SubmitVT || rec.LatencyVirtualS <= 0 {
		t.Fatalf("virtual latency = %g", rec.LatencyVirtualS)
	}
	if rec.LatencyWallS < 0 || rec.FinishWall < rec.SubmitWall {
		t.Fatalf("wall clock went backwards: %+v", rec)
	}
	if rec.MapSeconds <= 0 || rec.ReduceSeconds <= 0 {
		t.Fatalf("phase seconds = map %g reduce %g", rec.MapSeconds, rec.ReduceSeconds)
	}
	// The incremental diagnosis ran and satisfies the diag invariant:
	// breakdown components sum to the query's makespan.
	if rec.Diagnosis == nil {
		t.Fatalf("no diagnosis (err %q)", rec.DiagError)
	}
	if err := rec.Diagnosis.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(rec.Diagnosis.Breakdown.Total() - rec.LatencyVirtualS); diff > 1e-6 {
		t.Fatalf("breakdown total %g != makespan %g", rec.Diagnosis.Breakdown.Total(), rec.LatencyVirtualS)
	}

	ps := r.PolicyStats()
	if len(ps) != 1 || ps[0].Policy != "LA" || ps[0].Finished != 1 || ps[0].Failed != 0 {
		t.Fatalf("policy stats = %+v", ps)
	}
	if ps[0].VirtualP50S < rec.LatencyVirtualS || ps[0].VirtualMaxS != rec.LatencyVirtualS {
		t.Fatalf("latency stats = %+v vs %g", ps[0], rec.LatencyVirtualS)
	}
	if ps[0].QPS <= 0 {
		t.Fatalf("QPS = %g", ps[0].QPS)
	}

	started, finished, failed := r.Totals()
	if started != 1 || finished != 1 || failed != 0 {
		t.Fatalf("totals = %d/%d/%d", started, finished, failed)
	}
}

func TestRegistryDumpJSON(t *testing.T) {
	eng, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 6, 50)
	r := NewRegistry(jt)
	for i := 0; i < 3; i++ {
		job, _ := submitTracked(t, r, jt, f, 10, "HA")
		mapreduce.RunUntilDone(eng, job, 1e6)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Schema != SchemaVersion {
		t.Fatalf("schema = %q", d.Schema)
	}
	if d.Started != 3 || d.Finished != 3 || len(d.Queries) != 3 || len(d.InFlight) != 0 {
		t.Fatalf("dump = %+v", d)
	}
	for i, q := range d.Queries {
		if q.Diagnosis == nil {
			t.Fatalf("query %d missing diagnosis", i)
		}
	}
	if len(d.Policies) != 1 || d.Policies[0].Policy != "HA" || d.Policies[0].Finished != 3 {
		t.Fatalf("policies = %+v", d.Policies)
	}
	// Nil registry still yields a schema-tagged empty dump.
	var nilReg *Registry
	if nd := nilReg.Dump(); nd.Schema != SchemaVersion || len(nd.Queries) != 0 {
		t.Fatalf("nil dump = %+v", nd)
	}
}

func TestRegistryUntracedStillCounts(t *testing.T) {
	eng, fs, jt := rig(t, false)
	f := mkFile(t, fs, "in", 4, 25)
	r := NewRegistry(jt)
	job, _ := submitTracked(t, r, jt, f, 5, "")
	mapreduce.RunUntilDone(eng, job, 1e6)
	sums := r.Dump().Queries
	if len(sums) != 1 || sums[0].State != StateOK {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].Diagnosis != nil {
		t.Fatal("diagnosis without tracing")
	}
	if sums[0].Matches != 100 {
		t.Fatalf("matches = %d", sums[0].Matches)
	}
}

func TestRegistryIgnoresUnregisteredJobs(t *testing.T) {
	eng, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 4, 25)
	r := NewRegistry(jt)
	// A job submitted without Register (e.g. a selectivity-estimation
	// job) must not appear anywhere.
	job := jt.Submit(mapreduce.JobSpec{NewMapper: echoMapper}, mapreduce.SplitsForFile(f))
	mapreduce.RunUntilDone(eng, job, 1e6)
	if d := r.Dump(); len(d.Queries) != 0 || len(d.InFlight) != 0 {
		t.Fatal("unregistered job tracked")
	}
	started, _, _ := r.Totals()
	if started != 0 {
		t.Fatalf("started = %d", started)
	}
}

func TestRegistryAbandon(t *testing.T) {
	eng, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 4, 25)
	r := NewRegistry(jt)
	job, id := submitTracked(t, r, jt, f, 5, "C")
	r.Abandon(job, "deadline exceeded")
	mapreduce.RunUntilDone(eng, job, 1e6) // later finish must be ignored
	sums := r.Dump().Queries
	if len(sums) != 1 || sums[0].State != StateAbandoned || sums[0].ID != id {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].Error != "deadline exceeded" {
		t.Fatalf("error = %q", sums[0].Error)
	}
	_, finished, failed := r.Totals()
	if finished != 1 || failed != 1 {
		t.Fatalf("totals = %d/%d", finished, failed)
	}
}

func TestPromFamiliesExposition(t *testing.T) {
	eng, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 6, 50)
	r := NewRegistry(jt)
	for _, pol := range []string{"LA", "Hadoop"} {
		job, _ := submitTracked(t, r, jt, f, 10, pol)
		mapreduce.RunUntilDone(eng, job, 1e6)
	}
	var b strings.Builder
	if err := trace.WritePrometheus(&b, r.PromFamilies("dynmr.")); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dynmr_query_latency_wall_s histogram",
		"# TYPE dynmr_query_latency_virtual_s histogram",
		`dynmr_query_latency_virtual_s_bucket{policy="LA",le="+Inf"} 1`,
		`dynmr_query_latency_virtual_s_count{policy="LA"} 1`,
		`dynmr_query_latency_virtual_s_count{policy="Hadoop"} 1`,
		`dynmr_query_qps{policy="LA"}`,
		"dynmr_queries_started_total 2",
		"dynmr_queries_finished_total 2",
		"dynmr_queries_failed_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Bucket lines are cumulative and end at +Inf == count.
	if !strings.Contains(out, `le="0.001"`) {
		t.Error("ladder floor missing")
	}
	if (*Registry)(nil).PromFamilies("x") != nil {
		t.Fatal("nil registry produced families")
	}
}

// BenchmarkQueryRecord measures the per-query bookkeeping cost the
// registry adds to a serve loop: ID allocation, registration, the copy
// of the query's spans into a recycled buffer, phase attribution,
// histogram folds, record retention, and the diagnosis, which each
// iteration waits for. The simulation itself runs once, outside the
// timed loop; each iteration replays the finalisation against the
// captured span slice of its static job.
func BenchmarkQueryRecord(b *testing.B) {
	eng, fs, jt := rig(b, true)
	f := mkFile(b, fs, "in", 12, 100)
	r := NewRegistry(jt)
	job, _ := submitTracked(b, r, jt, f, 200, "LA")
	mapreduce.RunUntilDone(eng, job, 1e6)
	seed := r.Dump().Queries[0]
	if seed.Diagnosis == nil {
		b.Fatalf("seed query has no diagnosis (%s)", seed.DiagError)
	}
	r.mu.Lock()
	r.maxRecords = 1000
	r.mu.Unlock()
	var spans []trace.Span
	for _, s := range jt.Tracer().Spans() {
		if s.Job == job.ID {
			spans = append(spans, s)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := r.AllocID()
		r.mu.Lock()
		rec := &QueryRecord{
			ID: id, JobID: job.ID, SQL: seed.SQL, User: job.User,
			Policy: "LA", K: 200, Dynamic: job.Dynamic, State: StateRunning,
			SubmitVT: job.SubmitTime, FirstMatchVT: -1, LimitHitVT: -1, FinishVT: -1,
			SubmitWall: r.now(), FirstMatchWall: -1, LimitHitWall: -1, FinishWall: -1,
			SplitsTotal: 12, job: job,
		}
		r.inflight[job.ID] = rec
		rec.spans = append(popFree(&r.freeSpans, len(spans)), spans...)
		r.started++
		r.finishLocked(rec, job.FinishTime)
		r.waitDiagnosedLocked()
		r.mu.Unlock()
	}
	b.StopTimer()
	got := r.Dump().Queries
	if last := got[len(got)-1]; last.Diagnosis == nil || !reflect.DeepEqual(last.Diagnosis, seed.Diagnosis) {
		b.Fatalf("benchmark records lost or changed the diagnosis: %q", last.DiagError)
	}
}
