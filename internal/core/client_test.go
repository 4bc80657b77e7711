package core

import (
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/sim"
)

type rig struct {
	eng *sim.Engine
	cl  *cluster.Cluster
	fs  *dfs.DFS
	jt  *mapreduce.JobTracker
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	return &rig{eng: eng, cl: cl, fs: dfs.New(cl),
		jt: mapreduce.NewJobTracker(cl, mapreduce.DefaultConfig(), nil)}
}

var vSchema = data.NewSchema("V")

func (r *rig) file(t *testing.T, name string, blocks, recsEach int) []mapreduce.Split {
	t.Helper()
	var srcs []data.Source
	for b := 0; b < blocks; b++ {
		recs := make([]data.Record, recsEach)
		for i := range recs {
			recs[i] = data.NewRecord(vSchema, []data.Value{data.Int(int64(b*recsEach + i))})
		}
		srcs = append(srcs, data.NewSliceSource(vSchema, recs))
	}
	f, err := r.fs.Create(name, srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return mapreduce.SplitsForFile(f)
}

func passMapper(*mapreduce.JobConf) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(rec data.Record, out *mapreduce.Collector) error {
		out.Emit("k", rec)
		return nil
	})
}

// scriptedProvider walks a fixed grab schedule, ending input when the
// schedule is exhausted or `stopAfter` maps completed.
type scriptedProvider struct {
	all       []mapreduce.Split
	cursor    int
	schedule  []int // partitions to add at each Next
	step      int
	stopAfter int // end input once this many maps completed (0=disabled)
	initial   int
	inits     int
	reports   []Report
}

func (p *scriptedProvider) Init(all []mapreduce.Split, conf *mapreduce.JobConf) error {
	p.all = all
	p.inits++
	return nil
}

func (p *scriptedProvider) InitialSplits(grab int) []mapreduce.Split {
	n := p.initial
	if n > grab {
		n = grab
	}
	if n > len(p.all) {
		n = len(p.all)
	}
	p.cursor = n
	return p.all[:n]
}

func (p *scriptedProvider) Next(rep Report) (Response, []mapreduce.Split) {
	p.reports = append(p.reports, rep)
	if p.stopAfter > 0 && rep.Job.CompletedMaps >= p.stopAfter {
		return EndOfInput, nil
	}
	if p.step >= len(p.schedule) {
		return EndOfInput, nil
	}
	n := p.schedule[p.step]
	p.step++
	if n == 0 {
		return NoInputAvailable, nil
	}
	if p.cursor+n > len(p.all) {
		n = len(p.all) - p.cursor
	}
	out := p.all[p.cursor : p.cursor+n]
	p.cursor += n
	return InputAvailable, out
}

func la(t *testing.T) *Policy {
	t.Helper()
	p, err := DefaultRegistry().Get(PolicyLA)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDynamicJobGrowsIncrementally(t *testing.T) {
	r := newRig(t)
	splits := r.file(t, "in", 20, 50)
	prov := &scriptedProvider{initial: 4, schedule: []int{4, 4, 0, 4}}
	c, err := SubmitDynamic(r.jt, mapreduce.JobSpec{NewMapper: passMapper}, splits, prov, la(t))
	if err != nil {
		t.Fatal(err)
	}
	job := c.Job()
	if !mapreduce.RunUntilDone(r.eng, job, 1e6) {
		t.Fatalf("job did not finish; state=%v decisions=%v providerErr=%v",
			job.State(), c.Decisions(), c.ProviderError())
	}
	if prov.inits != 1 {
		t.Fatalf("provider initialised %d times", prov.inits)
	}
	// 4 initial + 4+4+0+4 increments = 16 scheduled, then EndOfInput.
	if job.ScheduledMaps() != 16 {
		t.Fatalf("scheduled = %d, want 16", job.ScheduledMaps())
	}
	if job.CompletedMaps() != 16 {
		t.Fatalf("completed = %d", job.CompletedMaps())
	}
	if len(job.Output()) != 16*50 {
		t.Fatalf("output = %d", len(job.Output()))
	}
	if !c.inputClosed {
		t.Fatal("input never closed")
	}
	// Decision log captured every provider consultation.
	if c.Evaluations() < 5 {
		t.Fatalf("evaluations = %d, want >= 5", c.Evaluations())
	}
}

func TestConfStampedDynamic(t *testing.T) {
	r := newRig(t)
	splits := r.file(t, "in", 4, 10)
	prov := &scriptedProvider{initial: 4}
	c, err := SubmitDynamic(r.jt, mapreduce.JobSpec{NewMapper: passMapper}, splits, prov, la(t))
	if err != nil {
		t.Fatal(err)
	}
	conf := c.Job().Conf
	if !conf.GetBool(mapreduce.ConfDynamicJob, false) {
		t.Error("dynamic.job not set")
	}
	if conf.Get(mapreduce.ConfDynamicPolicy, "") != PolicyLA {
		t.Error("dynamic.job.policy not set")
	}
	if conf.Get(mapreduce.ConfDynamicProvider, "") == "" {
		t.Error("dynamic.input.provider not set")
	}
	mapreduce.RunUntilDone(r.eng, c.Job(), 1e6)
}

func TestInitialGrabRespectsPolicy(t *testing.T) {
	r := newRig(t)
	splits := r.file(t, "in", 40, 10)
	// C on an idle 40-slot cluster: grab limit 4.
	pol, _ := DefaultRegistry().Get(PolicyC)
	prov := &scriptedProvider{initial: 40} // provider asks for everything
	c, err := SubmitDynamic(r.jt, mapreduce.JobSpec{NewMapper: passMapper}, splits, prov, pol)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Job().ScheduledMaps(); got != 4 {
		t.Fatalf("initial scheduled = %d, want 4 (grab-limited)", got)
	}
	mapreduce.RunUntilDone(r.eng, c.Job(), 1e6)
}

func TestHadoopPolicyAddsEverythingUpFront(t *testing.T) {
	r := newRig(t)
	splits := r.file(t, "in", 30, 10)
	pol, _ := DefaultRegistry().Get(PolicyHadoop)
	prov := &scriptedProvider{initial: 30}
	c, err := SubmitDynamic(r.jt, mapreduce.JobSpec{NewMapper: passMapper}, splits, prov, pol)
	if err != nil {
		t.Fatal(err)
	}
	if c.Job().ScheduledMaps() != 30 {
		t.Fatalf("scheduled = %d, want all 30", c.Job().ScheduledMaps())
	}
	if !c.inputClosed {
		t.Fatal("input should close immediately when everything is scheduled")
	}
	if !mapreduce.RunUntilDone(r.eng, c.Job(), 1e6) {
		t.Fatal("job did not finish")
	}
	if c.Evaluations() != 0 {
		t.Fatalf("Hadoop-policy job consulted the provider %d times", c.Evaluations())
	}
}

func TestEndOfInputStopsEvaluation(t *testing.T) {
	r := newRig(t)
	splits := r.file(t, "in", 20, 10)
	prov := &scriptedProvider{initial: 2, stopAfter: 2, schedule: []int{2, 2, 2, 2, 2, 2}}
	c, err := SubmitDynamic(r.jt, mapreduce.JobSpec{NewMapper: passMapper}, splits, prov, la(t))
	if err != nil {
		t.Fatal(err)
	}
	if !mapreduce.RunUntilDone(r.eng, c.Job(), 1e6) {
		t.Fatal("job did not finish")
	}
	// Once completed >= 2 the provider said EndOfInput; the client must
	// not consult it afterwards.
	last := c.Decisions()[len(c.Decisions())-1]
	if last.Response != EndOfInput {
		t.Fatalf("last decision = %v", last.Response)
	}
	if c.Job().ScheduledMaps() >= 20 {
		t.Fatal("job consumed all input despite EndOfInput")
	}
}

func TestGrabLimitTruncatesProviderSplits(t *testing.T) {
	r := newRig(t)
	splits := r.file(t, "in", 40, 10)
	// Provider tries to add 40 at once under C (limit 4 on idle cluster).
	pol, _ := DefaultRegistry().Get(PolicyC)
	prov := &scriptedProvider{initial: 1, schedule: []int{39}}
	c, err := SubmitDynamic(r.jt, mapreduce.JobSpec{NewMapper: passMapper}, splits, prov, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !mapreduce.RunUntilDone(r.eng, c.Job(), 1e6) {
		t.Fatal("job did not finish")
	}
	for _, d := range c.Decisions() {
		if d.Added > d.GrabLimit {
			t.Fatalf("added %d > grab limit %d", d.Added, d.GrabLimit)
		}
	}
}

func TestPanickingProviderIsIsolated(t *testing.T) {
	r := newRig(t)
	splits := r.file(t, "in", 10, 10)
	prov := &panicProvider{all: splits}
	c, err := SubmitDynamic(r.jt, mapreduce.JobSpec{NewMapper: passMapper}, splits, prov, la(t))
	if err != nil {
		t.Fatal(err)
	}
	// The job completes with whatever input it had; the JobTracker
	// survives and can run further jobs.
	if !mapreduce.RunUntilDone(r.eng, c.Job(), 1e6) {
		t.Fatal("job did not reach terminal state after provider panic")
	}
	if c.ProviderError() == nil {
		t.Fatal("provider panic not recorded")
	}
	follow := r.jt.Submit(mapreduce.JobSpec{NewMapper: passMapper}, r.file(t, "in2", 2, 5))
	if !mapreduce.RunUntilDone(r.eng, follow, 1e6) {
		t.Fatal("JobTracker unusable after provider panic")
	}
}

type panicProvider struct{ all []mapreduce.Split }

func (p *panicProvider) Init([]mapreduce.Split, *mapreduce.JobConf) error { return nil }
func (p *panicProvider) InitialSplits(grab int) []mapreduce.Split {
	if grab > 2 {
		grab = 2
	}
	return p.all[:grab]
}
func (p *panicProvider) Next(Report) (Response, []mapreduce.Split) {
	panic("buggy provider")
}

func TestWorkThresholdSkipsEvaluations(t *testing.T) {
	r := newRig(t)
	splits := r.file(t, "in", 40, 400)
	// Custom policy: huge threshold so intermediate evaluations are
	// skipped until maps complete; liveness still closes the job.
	pol := &Policy{Name: "strict", EvaluationIntervalS: 1, WorkThresholdPct: 50,
		GrabLimitExpr: "10"}
	prov := &scriptedProvider{initial: 10, schedule: []int{0, 0, 0}}
	c, err := SubmitDynamic(r.jt, mapreduce.JobSpec{NewMapper: passMapper}, splits, prov, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !mapreduce.RunUntilDone(r.eng, c.Job(), 1e6) {
		t.Fatal("job did not finish")
	}
	// With a 50% threshold over 40 splits (= 20 maps) and only 10 maps
	// ever scheduled, the threshold is never met by progress; only the
	// idle liveness override may consult the provider. The provider's
	// first consult happens once all 10 are done.
	if len(prov.reports) == 0 {
		t.Fatal("provider never consulted (liveness override broken)")
	}
	first := prov.reports[0]
	if first.Job.CompletedMaps != 10 {
		t.Fatalf("first consultation at %d completed maps, want 10 (threshold skip broken)",
			first.Job.CompletedMaps)
	}
}

func TestReportCarriesClusterLoad(t *testing.T) {
	r := newRig(t)
	splits := r.file(t, "in", 10, 10)
	prov := &scriptedProvider{initial: 2, schedule: []int{2}}
	c, err := SubmitDynamic(r.jt, mapreduce.JobSpec{NewMapper: passMapper}, splits, prov, la(t))
	if err != nil {
		t.Fatal(err)
	}
	mapreduce.RunUntilDone(r.eng, c.Job(), 1e6)
	if len(prov.reports) == 0 {
		t.Fatal("no reports")
	}
	rep := prov.reports[0]
	if rep.Cluster.TotalMapSlots != 40 {
		t.Fatalf("report TS = %d", rep.Cluster.TotalMapSlots)
	}
	if rep.GrabLimit <= 0 {
		t.Fatalf("report grab limit = %d", rep.GrabLimit)
	}
	if rep.Job.JobID != c.Job().ID {
		t.Fatal("report job mismatch")
	}
}
