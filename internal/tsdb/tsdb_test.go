package tsdb

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/trace"
)

var schema = data.NewSchema("V")

func rig(t *testing.T) (*sim.Engine, *dfs.DFS, *mapreduce.JobTracker) {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	cfg := mapreduce.DefaultConfig()
	cfg.Trace = trace.Config{Enabled: true}
	return eng, dfs.New(cl), mapreduce.NewJobTracker(cl, cfg, nil)
}

func mkFile(t *testing.T, fs *dfs.DFS, name string, blocks, recs int) *dfs.File {
	t.Helper()
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

func echoMapper(*mapreduce.JobConf) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(rec data.Record, c *mapreduce.Collector) error {
		c.Emit("k", rec)
		return nil
	})
}

func TestSeriesRollups(t *testing.T) {
	s := newSeries(8, []Resolution{{StepS: 10, Capacity: 4}})
	for i := 0; i < 25; i++ {
		s.Append(float64(i), float64(i))
	}
	pts := s.Points()
	if len(pts) != 8 {
		t.Fatalf("raw points = %d, want 8 (ring capacity)", len(pts))
	}
	if pts[0].T != 17 || pts[7].T != 24 {
		t.Fatalf("raw window = [%g, %g], want [17, 24]", pts[0].T, pts[7].T)
	}
	bs := s.Buckets(0)
	// t=0..24 spans buckets starting 0,10,20; the last is still open.
	if len(bs) != 3 {
		t.Fatalf("buckets = %d, want 3", len(bs))
	}
	b0 := bs[0]
	if b0.Start != 0 || b0.Min != 0 || b0.Max != 9 || b0.Sum != 45 || b0.Count != 10 {
		t.Fatalf("bucket 0 = %+v", b0)
	}
	open := bs[2]
	if open.Start != 20 || open.Count != 5 || open.Min != 20 || open.Max != 24 {
		t.Fatalf("open bucket = %+v", open)
	}
}

func TestSeriesBucketRingWraps(t *testing.T) {
	s := newSeries(4, []Resolution{{StepS: 1, Capacity: 3}})
	for i := 0; i < 10; i++ {
		s.Append(float64(i), 1)
	}
	bs := s.Buckets(0)
	// 9 sealed buckets produced, 3 retained, plus the open one.
	if len(bs) != 4 {
		t.Fatalf("buckets = %d, want 4", len(bs))
	}
	if bs[0].Start != 6 || bs[3].Start != 9 {
		t.Fatalf("bucket window = [%g, %g], want [6, 9]", bs[0].Start, bs[3].Start)
	}
}

func TestSeriesAt(t *testing.T) {
	s := newSeries(16, nil)
	for _, ts := range []float64{1, 5, 9} {
		s.Append(ts, ts*10)
	}
	if p, ok := s.At(6); !ok || p.T != 5 {
		t.Fatalf("At(6) = %+v, %v", p, ok)
	}
	if _, ok := s.At(0.5); ok {
		t.Fatal("At before first point should miss")
	}
}

func TestParseRules(t *testing.T) {
	good := []byte(`{"rules": [
		{"name": "queue-depth", "kind": "threshold", "series": "cluster.queued_map_tasks", "op": ">=", "value": 100, "for_s": 60, "severity": "warn"},
		{"name": "latency-slo", "kind": "slo_burn", "policy": "LA", "objective_s": 30, "max_burn_pct": 5, "window_s": 300}
	]}`)
	rules, err := ParseRules(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Name != "queue-depth" || rules[1].Kind != KindSLOBurn {
		t.Fatalf("rules = %+v", rules)
	}
	for _, bad := range []string{
		`{"rules": []}`,
		`{"rules": [{"name": "", "kind": "threshold", "series": "x"}]}`,
		`{"rules": [{"name": "a", "kind": "nope"}]}`,
		`{"rules": [{"name": "a", "kind": "threshold"}]}`,
		`{"rules": [{"name": "a", "kind": "slo_burn"}]}`,
		`{"rules": [{"name": "a", "kind": "threshold", "series": "x", "op": "!="}]}`,
		`{"rules": [{"name": "a", "kind": "threshold", "series": "x"}, {"name": "a", "kind": "threshold", "series": "x"}]}`,
		`{"rules": [{"name": "a", "kind": "threshold", "series": "x", "typo_field": 1}]}`,
	} {
		if _, err := ParseRules([]byte(bad)); err == nil {
			t.Errorf("ParseRules(%s) accepted invalid input", bad)
		}
	}
}

// TestThresholdRuleLifecycle drives the state machine directly: breach
// → pending under for_s → firing → resolved, with both transitions in
// the event log.
func TestThresholdRuleLifecycle(t *testing.T) {
	_, _, jt := rig(t)
	db, err := New(jt, Config{Rules: []Rule{
		{Name: "hot", Kind: KindThreshold, Series: "x", Op: ">", Value: 5, ForS: 10, Severity: "page"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	step := func(now, v float64) {
		db.put(now, "x", v)
		db.evaluate(now)
	}
	step(0, 3)
	if d := db.AlertsDump(); len(d.Active) != 0 || len(d.Events) != 0 {
		t.Fatalf("no breach yet: %+v", d)
	}
	step(10, 9) // breach starts; pending
	step(15, 9) // 5s held < for_s
	if d := db.AlertsDump(); len(d.Active) != 0 {
		t.Fatalf("fired before for_s elapsed: %+v", d.Active)
	}
	step(20, 9) // 10s held → fires
	d := db.AlertsDump()
	if len(d.Active) != 1 || d.Active[0].Rule != "hot" || d.Active[0].Severity != "page" {
		t.Fatalf("active = %+v", d.Active)
	}
	if len(d.Events) != 1 || d.Events[0].State != StateFiring || d.Events[0].TimeS != 20 {
		t.Fatalf("events = %+v", d.Events)
	}
	step(30, 2) // clears
	d = db.AlertsDump()
	if len(d.Active) != 0 {
		t.Fatalf("still active after clear: %+v", d.Active)
	}
	if len(d.Events) != 2 || d.Events[1].State != StateResolved {
		t.Fatalf("events = %+v", d.Events)
	}
	if d.Schema != AlertsSchemaVersion {
		t.Fatalf("schema %q", d.Schema)
	}
}

func TestRateOfChangeRule(t *testing.T) {
	_, _, jt := rig(t)
	db, err := New(jt, Config{Rules: []Rule{
		{Name: "ramp", Kind: KindRateOfChange, Series: "c", Value: 2, WindowS: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	db.put(0, "c", 0)
	db.evaluate(0)
	db.put(10, "c", 10) // 1/s over the window: below
	db.evaluate(10)
	if d := db.AlertsDump(); len(d.Active) != 0 {
		t.Fatalf("1/s fired: %+v", d.Active)
	}
	db.put(20, "c", 40) // 3/s: above
	db.evaluate(20)
	if d := db.AlertsDump(); len(d.Active) != 1 {
		t.Fatalf("3/s did not fire: %+v", d.Active)
	}
}

// TestSLOBurnRule feeds synthetic finished queries into the burn window
// and checks both the firing decision and the derived burn series.
func TestSLOBurnRule(t *testing.T) {
	_, _, jt := rig(t)
	db, err := New(jt, Config{Rules: []Rule{
		{Name: "slo", Kind: KindSLOBurn, Policy: "LA", ObjectiveS: 10, MaxBurnPct: 50, WindowS: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	q := func(policy string, finish, lat float64) qstats.Outcome {
		return qstats.Outcome{Policy: policy, FinishVT: finish, LatencyVirtualS: lat}
	}
	// 1 of 3 LA queries over objective (other-policy record ignored).
	db.feedWindows([]qstats.Outcome{q("LA", 5, 3), q("LA", 6, 20), q("LA", 7, 4), q("Hadoop", 8, 99)})
	db.evaluate(10)
	if p, ok := db.Latest("slo.slo.burn_pct"); !ok || math.Abs(p.V-100.0/3) > 1e-9 {
		t.Fatalf("burn series = %+v, %v", p, ok)
	}
	if d := db.AlertsDump(); len(d.Active) != 0 {
		t.Fatalf("33%% burn fired at 50%% threshold: %+v", d.Active)
	}
	// Two more breaches push burn to 60%.
	db.feedWindows([]qstats.Outcome{q("LA", 11, 30), q("LA", 12, 30)})
	db.evaluate(15)
	if d := db.AlertsDump(); len(d.Active) != 1 || d.Active[0].Rule != "slo" {
		t.Fatalf("60%% burn did not fire: %+v", d.Active)
	}
	// Window slides past every observation → no data → resolves.
	db.evaluate(500)
	d := db.AlertsDump()
	if len(d.Active) != 0 {
		t.Fatalf("still active with empty window: %+v", d.Active)
	}
	if n := len(d.Events); n != 2 || d.Events[1].State != StateResolved {
		t.Fatalf("events = %+v", d.Events)
	}
}

// TestCollectEndToEnd runs a real traced job, ticks the engine-attached
// DB, and checks the collected series and the Dump schema round-trip.
func TestCollectEndToEnd(t *testing.T) {
	eng, fs, jt := rig(t)
	f := mkFile(t, fs, "in", 8, 100)
	reg := qstats.NewRegistry(jt)
	db, err := New(jt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	db.SetQueryStats(reg)
	db.Start()

	id := reg.AllocID()
	conf := mapreduce.NewJobConf()
	conf.SetInt(mapreduce.ConfSampleSize, 50)
	conf.Set(mapreduce.ConfDynamicPolicy, "LA")
	conf.Set(mapreduce.ConfQueryID, id)
	job := jt.Submit(mapreduce.JobSpec{Conf: conf, NewMapper: echoMapper}, mapreduce.SplitsForFile(f))
	reg.Register(id, job, "SELECT V FROM t LIMIT 50", job.ScheduledMaps())
	mapreduce.RunUntilDone(eng, job, 1e6)
	eng.RunUntil(eng.Now() + 5)

	d := db.Dump()
	if d.Schema != SchemaVersion || d.IntervalS != IntervalS {
		t.Fatalf("dump header: %+v", d)
	}
	want := map[string]bool{
		"cluster.running_jobs":     false,
		"cluster.map_slot_pct":     false,
		"cluster.cpu_util_pct":     false,
		"cluster.disk_read_kb_s":   false,
		"cluster.network_util_pct": false,
		"sim.virtual_time_s":       false,
		"sim.processed_events":     false,
		"query.in_flight":          false,
		"query.qps.LA":             false,
		"query.latency_p99_s.LA":   false,
		"query.split_cost_s":       false,
	}
	for _, s := range d.Series {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
		if len(s.Points) == 0 {
			t.Errorf("series %s has no points", s.Name)
		}
		if len(s.Rollups) != 2 {
			t.Errorf("series %s has %d rollup levels, want 2", s.Name, len(s.Rollups))
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("series %s missing from dump", name)
		}
	}
	// Without a sampler, the tick reads the CPU integral itself.
	if b := db.series["cluster.cpu_util_pct"].Buckets(0); len(b) == 0 || b[0].Max <= 0 {
		t.Errorf("cluster.cpu_util_pct buckets %+v, want CPU use during the job", b)
	}
	// The dump is JSON-stable.
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Dump
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || len(back.Series) != len(d.Series) {
		t.Fatalf("round-trip lost series: %d vs %d", len(back.Series), len(d.Series))
	}
}

// TestFlushCatchesPostTickFinish: short runs stop the clock the moment
// the last job completes, after the last 5 s tick, so a query finishing
// between ticks is invisible to the scheduled collection — Flush must
// deliver it to the slo_burn window and fire the rule, and a second
// Flush at the same virtual time must be a no-op.
func TestFlushCatchesPostTickFinish(t *testing.T) {
	eng, fs, jt := rig(t)
	f := mkFile(t, fs, "in", 8, 100)
	reg := qstats.NewRegistry(jt)
	db, err := New(jt, Config{Rules: []Rule{
		{Name: "latency-slo", Kind: KindSLOBurn, ObjectiveS: 1e-6},
	}})
	if err != nil {
		t.Fatal(err)
	}
	db.SetQueryStats(reg)
	db.Start()

	id := reg.AllocID()
	conf := mapreduce.NewJobConf()
	conf.SetInt(mapreduce.ConfSampleSize, 50)
	conf.Set(mapreduce.ConfDynamicPolicy, "LA")
	conf.Set(mapreduce.ConfQueryID, id)
	job := jt.Submit(mapreduce.JobSpec{Conf: conf, NewMapper: echoMapper}, mapreduce.SplitsForFile(f))
	reg.Register(id, job, "SELECT V FROM t LIMIT 50", job.ScheduledMaps())
	mapreduce.RunUntilDone(eng, job, 1e6)

	// The clock stopped at the finish, so no scheduled tick saw it.
	if d := db.AlertsDump(); len(d.Events) != 0 {
		t.Fatalf("a tick saw the finish before Flush: %+v", d.Events)
	}
	db.Flush()
	d := db.AlertsDump()
	if len(d.Active) != 1 || d.Active[0].Rule != "latency-slo" {
		t.Fatalf("Flush did not fire the breached SLO: %+v", d)
	}
	points := len(db.series["cluster.running_jobs"].Points())
	db.Flush() // clock unchanged → no-op
	if n := len(db.series["cluster.running_jobs"].Points()); n != points || len(db.AlertsDump().Events) != 1 {
		t.Fatalf("second Flush at the same time was not a no-op")
	}
}

// BenchmarkSeriesAppend pins the per-point cost of the hot append path:
// the ring and every rollup level are preallocated, so steady-state
// appends must not allocate (the CI gate budget pins allocs at 0).
func BenchmarkSeriesAppend(b *testing.B) {
	s := newSeries(rawCapacity, resolutions[:])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Append(float64(i), float64(i%97))
	}
}

// submitAt submits a query of the policy at virtual time at: a job
// over no splits, which runs only its reduce and finishes about a
// second later.
func submitAt(eng *sim.Engine, jt *mapreduce.JobTracker, reg *qstats.Registry, at float64, policy string) {
	eng.RunUntil(at)
	conf := mapreduce.NewJobConf()
	conf.Set(mapreduce.ConfDynamicPolicy, policy)
	job := jt.Submit(mapreduce.JobSpec{Conf: conf, NewMapper: echoMapper}, nil)
	reg.Register(reg.AllocID(), job, "SELECT V FROM t", 0)
}

// TestQPSCountsVirtualFinishes: a policy's query.qps series is its
// finishes over the tick's virtual interval, and a listed policy with
// none in a tick reads 0.
func TestQPSCountsVirtualFinishes(t *testing.T) {
	eng, _, jt := rig(t)
	reg := qstats.NewRegistry(jt)
	db, err := New(jt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	db.SetQueryStats(reg)
	db.Start()
	for _, at := range []float64{0, 1, 2} {
		submitAt(eng, jt, reg, at, "LA")
	}
	submitAt(eng, jt, reg, 6, "HA")
	eng.RunUntil(10)
	finishes, _ := reg.OutcomesSince(nil, 0)
	var at []float64
	for _, q := range finishes {
		at = append(at, q.FinishVT)
	}
	if len(at) != 4 || at[2] >= 5 || at[3] <= 5 || at[3] > 10 {
		t.Fatalf("finish times %v, want three LA finishes before 5 s and HA's in (5, 10]", at)
	}
	for name, want := range map[string][]Point{
		"query.qps.LA": {{T: 5, V: 0.6}, {T: 10, V: 0}},
		"query.qps.HA": {{T: 10, V: 0.2}},
	} {
		s := db.series[name]
		if s == nil {
			t.Fatalf("no %s series", name)
		}
		if got := s.Points(); !slices.Equal(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestWarmTickAllocatesOnlyPolicyStats: once every series exists, a
// tick that fires no transition resolves no name and builds no map, and
// its utilization cursor allocates nothing; its one allocation is the
// slice qstats' PolicyStats returns. Each measured run moves the clock
// one tick, through the idle trackers' heartbeats, which allocate
// nothing either.
func TestWarmTickAllocatesOnlyPolicyStats(t *testing.T) {
	eng, _, jt := rig(t)
	reg := qstats.NewRegistry(jt)
	db, err := New(jt, Config{Rules: []Rule{
		{Name: "jobs-high", Kind: KindThreshold, Series: "cluster.running_jobs", Value: 1e9},
		{Name: "latency-slo", Kind: KindSLOBurn, ObjectiveS: 1e9, WindowS: 1e9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	db.SetQueryStats(reg)
	db.Start()
	submitAt(eng, jt, reg, 0, "LA")
	submitAt(eng, jt, reg, 1, "HA")
	eng.RunUntil(60)
	series := len(db.series)
	allocs := testing.AllocsPerRun(100, func() {
		eng.RunUntil(eng.Now() + IntervalS)
	})
	if allocs > 1 {
		t.Errorf("a warm tick allocated %v times, want at most 1", allocs)
	}
	if len(db.series) != series || len(db.events) != 0 {
		t.Fatalf("the measured ticks added %d series and %d alert events", len(db.series)-series, len(db.events))
	}
	if db.counters[trace.CounterJobsFinished] == nil || db.policies["HA"] == nil || db.rules[1].burn == nil {
		t.Fatal("the warm-up resolved no counter, policy or rule series")
	}
}

// TestSlotSeriesAreTickMeans: cluster.map_slot_pct and
// cluster.reduce_slot_pct are means over each tick, like the other
// utilization series, not the occupancy at the tick instant. A job
// whose attempts fill and free slots inside one tick must read, at
// every tick, the slot-seconds its attempt spans occupied in it over
// total slots × the tick.
func TestSlotSeriesAreTickMeans(t *testing.T) {
	eng, fs, jt := rig(t)
	f := mkFile(t, fs, "in", 8, 100)
	db, err := New(jt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	db.Start()
	eng.RunUntil(1)
	spec := mapreduce.JobSpec{NewMapper: echoMapper, Conf: mapreduce.NewJobConf()}
	spec.Conf.SetInt(mapreduce.ConfNumReduces, 2)
	job := jt.Submit(spec, mapreduce.SplitsForFile(f))
	mapreduce.RunUntilDone(eng, job, 1e6)
	eng.RunUntil(eng.Now() + 2*IntervalS)

	st := jt.ClusterStatus()
	for _, c := range []struct {
		series, span string
		slots        int
	}{
		{"cluster.map_slot_pct", trace.SpanMapAttempt, st.TotalMapSlots},
		{"cluster.reduce_slot_pct", trace.SpanReduceAttempt, st.TotalReduceSlots},
	} {
		busy := 0
		for _, p := range db.series[c.series].Points() {
			var slotS float64
			for _, sp := range jt.Tracer().Spans() {
				if sp.Name == c.span {
					slotS += max(0, min(sp.End, p.T)-max(sp.Start, p.T-IntervalS))
				}
			}
			want := 100 * slotS / (float64(c.slots) * IntervalS)
			if math.Abs(p.V-want) > 1e-9*want {
				t.Errorf("%s at %v s = %v, want %v from the attempt spans", c.series, p.T, p.V, want)
			}
			if want > 0 {
				busy++
			}
		}
		if busy == 0 {
			t.Errorf("%s: no tick held an attempt", c.series)
		}
	}
	if n := jt.ClusterStatus(); n.OccupiedMapSlots != 0 || n.OccupiedReduces != 0 {
		t.Fatalf("slots still occupied at the end: %+v", n)
	}
}
