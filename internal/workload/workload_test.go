package workload

import (
	"fmt"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/hive"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/tpch"
)

// rig builds a multi-user test bench with per-user LINEITEM copies.
type rig struct {
	eng     *sim.Engine
	jt      *mapreduce.JobTracker
	catalog *hive.Catalog
}

func newRig(t *testing.T, nUsers int, sched mapreduce.TaskScheduler) *rig {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig().MultiUser())
	fs := dfs.New(cl)
	jt := mapreduce.NewJobTracker(cl, mapreduce.DefaultConfig(), sched)
	catalog := hive.NewCatalog()
	for u := 0; u < nUsers; u++ {
		// Paper-like geometry scaled down: I/O-dominated ~60 MB
		// partitions, many more partitions than map slots for scans,
		// and enough matches that LIMIT 100 needs only ~1 partition.
		ds, err := dataset.Build(dataset.Spec{
			Scale: 20, Seed: int64(100 + u), Z: 0, Selectivity: 0.0002,
			Partitions: 400, RowsOverride: 120_000_000,
			Name: fmt.Sprintf("lineitem_u%d", u),
		})
		if err != nil {
			t.Fatal(err)
		}
		srcs := make([]data.Source, ds.NumPartitions())
		for i, p := range ds.Partitions() {
			srcs[i] = p
		}
		f, err := fs.Create(ds.Name(), srcs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := catalog.Register(&hive.Table{Name: ds.Name(), Schema: tpch.LineItemSchema, File: f}); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{eng: eng, jt: jt, catalog: catalog}
}

func (r *rig) samplingUser(t *testing.T, idx int, policy string) *User {
	t.Helper()
	name := fmt.Sprintf("user%d", idx)
	s := hive.NewSession(r.jt, r.catalog, nil, name)
	if policy != "" {
		s.Set("dynamic.job.policy", policy)
	}
	return &User{
		Name:    name,
		Class:   "Sampling",
		Query:   fmt.Sprintf("SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM lineitem_u%d WHERE L_DISCOUNT = 0.11 LIMIT 100", idx),
		Session: s,
	}
}

func (r *rig) scanUser(t *testing.T, idx int) *User {
	t.Helper()
	name := fmt.Sprintf("scanner%d", idx)
	s := hive.NewSession(r.jt, r.catalog, nil, name)
	return &User{
		Name:    name,
		Class:   "Non-Sampling",
		Query:   fmt.Sprintf("SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM lineitem_u%d WHERE L_DISCOUNT = 0.11", idx),
		Session: s,
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{MeasureS: 0}).Validate(); err == nil {
		t.Error("zero MeasureS accepted")
	}
	if err := (Config{MeasureS: 10, WarmupS: -1}).Validate(); err == nil {
		t.Error("negative warmup accepted")
	}
	if err := (Config{MeasureS: 10}).Validate(); err != nil {
		t.Error(err)
	}
}

func TestRunRequiresUsers(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := Run(eng, nil, Config{MeasureS: 10}); err == nil {
		t.Fatal("empty user list accepted")
	}
}

func TestClosedLoopThroughput(t *testing.T) {
	r := newRig(t, 2, nil)
	users := []*User{r.samplingUser(t, 0, "LA"), r.samplingUser(t, 1, "LA")}
	res, err := Run(r.eng, users, Config{WarmupS: 100, MeasureS: 900})
	if err != nil {
		t.Fatal(err)
	}
	cs, ok := res.Class("Sampling")
	if !ok {
		t.Fatal("Sampling class missing")
	}
	if cs.Users != 2 {
		t.Fatalf("users = %d", cs.Users)
	}
	if cs.Completed == 0 {
		t.Fatal("no jobs completed inside the window")
	}
	wantTp := float64(cs.Completed) * 3600 / 900
	if cs.ThroughputJobsPerHour != wantTp {
		t.Fatalf("throughput = %v, want %v", cs.ThroughputJobsPerHour, wantTp)
	}
	if cs.MeanResponseS <= 0 {
		t.Fatalf("mean response = %v", cs.MeanResponseS)
	}
	if cs.MedianResponseS <= 0 || cs.P95ResponseS < cs.MedianResponseS {
		t.Fatalf("percentiles inconsistent: median %v p95 %v", cs.MedianResponseS, cs.P95ResponseS)
	}
	// Closed loop: at all times at most one job in flight per user.
	for _, u := range users {
		if u.failures != 0 {
			t.Fatalf("user %s had %d failures", u.Name, u.failures)
		}
		if len(u.responseTimes) != u.completed {
			t.Fatalf("response-time count mismatch for %s", u.Name)
		}
	}
}

func TestHeterogeneousClasses(t *testing.T) {
	r := newRig(t, 4, nil)
	users := []*User{
		r.samplingUser(t, 0, "LA"),
		r.samplingUser(t, 1, "LA"),
		r.scanUser(t, 2),
		r.scanUser(t, 3),
	}
	res, err := Run(r.eng, users, Config{WarmupS: 100, MeasureS: 400})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerClass) != 2 {
		t.Fatalf("classes = %d", len(res.PerClass))
	}
	samp, _ := res.Class("Sampling")
	scan, _ := res.Class("Non-Sampling")
	if samp.Completed == 0 || scan.Completed == 0 {
		t.Fatalf("both classes must make progress: %+v / %+v", samp, scan)
	}
	// Sampling jobs touch a fraction of the input; scans read all 40
	// partitions; sampling throughput must exceed scan throughput.
	if samp.ThroughputJobsPerHour <= scan.ThroughputJobsPerHour {
		t.Fatalf("sampling %.1f <= scan %.1f jobs/hour",
			samp.ThroughputJobsPerHour, scan.ThroughputJobsPerHour)
	}
	if res.TotalThroughput != samp.ThroughputJobsPerHour+scan.ThroughputJobsPerHour {
		t.Fatal("total throughput mismatch")
	}
}

func TestWarmupExcluded(t *testing.T) {
	r := newRig(t, 1, nil)
	users := []*User{r.samplingUser(t, 0, "HA")}
	res, err := Run(r.eng, users, Config{WarmupS: 2000, MeasureS: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Jobs completing before t=2000 must not count.
	cs, _ := res.Class("Sampling")
	if users[0].totalCompleted <= cs.Completed {
		t.Fatalf("warmup jobs counted: total=%d window=%d", users[0].totalCompleted, cs.Completed)
	}
}

func TestEventGuard(t *testing.T) {
	r := newRig(t, 1, nil)
	users := []*User{r.samplingUser(t, 0, "LA")}
	_, err := Run(r.eng, users, Config{WarmupS: 0, MeasureS: 1e6, MaxEvents: 100})
	if err == nil {
		t.Fatal("event guard did not trip")
	}
}

func TestFairSchedulerWorkload(t *testing.T) {
	r := newRig(t, 2, mapreduce.NewFairScheduler())
	users := []*User{r.samplingUser(t, 0, "LA"), r.samplingUser(t, 1, "LA")}
	res, err := Run(r.eng, users, Config{WarmupS: 100, MeasureS: 600})
	if err != nil {
		t.Fatal(err)
	}
	cs, _ := res.Class("Sampling")
	if cs.Completed == 0 {
		t.Fatal("no completions under fair scheduler")
	}
}
