package obs

import (
	"fmt"
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

func rig(t *testing.T, traced bool) (*sim.Engine, *cluster.Cluster, *dfs.DFS, *mapreduce.JobTracker) {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	cfg := mapreduce.DefaultConfig()
	if traced {
		cfg.Trace = trace.Config{Enabled: true}
	}
	return eng, cl, dfs.New(cl), mapreduce.NewJobTracker(cl, cfg, nil)
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

func nopMapper(*mapreduce.JobConf) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(data.Record, *mapreduce.Collector) error { return nil })
}

// TestSlotIntegralMatchesSpanDurations is the satellite cross-check:
// the sampled per-node slot-occupancy series, integrated back to
// occupied-slot-seconds, must agree with the sum of the trace's
// map-attempt span durations — an attempt holds exactly one slot from
// startAttempt to release, which is exactly its enclosing span.
func TestSlotIntegralMatchesSpanDurations(t *testing.T) {
	eng, _, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 30, 400)

	s := NewSampler(jt, Config{IntervalS: 7})
	s.Start()
	job := jt.Submit(mapreduce.JobSpec{NewMapper: nopMapper}, mapreduce.SplitsForFile(f))
	mapreduce.RunUntilDone(eng, job, 1e6)
	// The job ends between ticks; Cut takes the tail interval.
	snaps := s.Cut()
	if last := snaps[len(snaps)-1]; last.Time != eng.Now() || last.IntervalS >= 7 {
		t.Fatalf("Cut's last snapshot at %v over %vs, want a partial interval ending at %v", last.Time, last.IntervalS, eng.Now())
	}

	var spanSeconds float64
	for _, sp := range jt.Tracer().Spans() {
		if sp.Name == trace.SpanMapAttempt {
			spanSeconds += sp.Duration()
		}
	}
	if spanSeconds == 0 {
		t.Fatal("no map-attempt spans recorded")
	}

	// Integrate per-node occupancy: pct/100 * slots * dt, summed over
	// nodes and samples.
	var sampled float64
	lastT := 0.0
	for _, snap := range snaps {
		dt := snap.Time - lastT
		lastT = snap.Time
		for _, ns := range snap.Nodes {
			sampled += ns.MapSlotPct / 100 * float64(ns.MapSlots) * dt
		}
	}
	if math.Abs(sampled-spanSeconds) > 1e-6*spanSeconds+1e-9 {
		t.Fatalf("sampled slot integral %.9f != span duration sum %.9f", sampled, spanSeconds)
	}

	// The cluster-level series must integrate to the same value.
	var clusterInt float64
	lastT = 0
	for _, snap := range snaps {
		dt := snap.Time - lastT
		lastT = snap.Time
		clusterInt += snap.MapSlotPct / 100 * float64(snap.TotalMapSlots) * dt
	}
	if math.Abs(clusterInt-spanSeconds) > 1e-6*spanSeconds+1e-9 {
		t.Fatalf("cluster slot integral %.9f != span duration sum %.9f", clusterInt, spanSeconds)
	}
}

// TestSamplerDoesNotPerturbSimulation: the sampler reads the cluster
// passively, so a contended run (staggered concurrent jobs, remote map
// reads and shuffles sharing the network, the §V-D poll settling CPU
// and disk every 30 s) records exactly the same spans, and the same
// poll series, with a sampler ticking off the poll's cadence as
// without one.
func TestSamplerDoesNotPerturbSimulation(t *testing.T) {
	run := func(sample bool) ([]trace.Span, []trace.MetricSample) {
		eng, _, fs, jt := rig(t, true)
		if sample {
			NewSampler(jt, Config{IntervalS: 0.013}).Start()
		}
		// Wide rows make every disk, network and CPU phase long enough
		// for ticks to land inside it while other demands come and go.
		wide := data.NewSchema("V", "PAD")
		pad := data.Str(strings.Repeat("x", 5000))
		jobs := make([]*mapreduce.Job, 20)
		for j := range jobs {
			var srcs []data.Source
			for b := 0; b < 20; b++ {
				rr := make([]data.Record, 1000)
				for i := range rr {
					rr[i] = data.NewRecord(wide, []data.Value{data.Int(int64(i)), pad})
				}
				srcs = append(srcs, data.NewSliceSource(wide, rr))
			}
			f, err := fs.Create(fmt.Sprintf("in%d", j), srcs, 1)
			if err != nil {
				t.Fatal(err)
			}
			eng.At(float64(j)*1.7, func() {
				spec := mapreduce.JobSpec{NewMapper: echoMapper}
				spec.Conf = mapreduce.NewJobConf()
				spec.Conf.SetInt(mapreduce.ConfNumReduces, 3)
				jobs[j] = jt.Submit(spec, mapreduce.SplitsForFile(f))
			})
		}
		eng.RunUntil(float64(len(jobs)) * 1.7)
		for _, job := range jobs {
			if !mapreduce.RunUntilDone(eng, job, 1e6) {
				t.Fatal("job stuck")
			}
		}
		return jt.Tracer().Spans(), jt.UtilizationTimeline()
	}
	offSpans, offPoll := run(false)
	onSpans, onPoll := run(true)
	remote := 0
	for _, sp := range offSpans {
		if sp.Name == trace.SpanNetRead {
			remote++
		}
	}
	if remote == 0 || len(offPoll) == 0 {
		t.Fatalf("run not contended enough: %d remote reads, %d poll readings", remote, len(offPoll))
	}
	if len(onSpans) != len(offSpans) {
		t.Fatalf("sampler changed the span count: %d vs %d", len(onSpans), len(offSpans))
	}
	for i := range offSpans {
		if onSpans[i] != offSpans[i] {
			t.Fatalf("sampler perturbed span %d:\nwithout %+v\nwith    %+v", i, offSpans[i], onSpans[i])
		}
	}
	if !reflect.DeepEqual(onPoll, offPoll) {
		t.Fatal("sampler perturbed the §V-D poll series")
	}
}

func TestSamplerIdleAndRestart(t *testing.T) {
	eng, _, _, jt := rig(t, false)
	s := NewSampler(jt, Config{})
	if s.interval != DefaultIntervalS {
		t.Fatalf("default interval = %v", s.interval)
	}
	s = NewSampler(jt, Config{IntervalS: 10})
	s.Start()
	// Idle engine: nothing schedules events besides the sampler itself.
	eng.RunUntil(35)
	snaps := s.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("idle snapshots = %d, want 3", len(snaps))
	}
	for _, sn := range snaps {
		if sn.CPUUtilPct != 0 || sn.MapSlotPct != 0 || sn.QueuedMaps != 0 {
			t.Fatalf("idle cluster read non-zero: %+v", sn)
		}
		if len(sn.Nodes) != 10 {
			t.Fatalf("snapshot has %d nodes", len(sn.Nodes))
		}
	}
	// A second Start is a no-op: no second tick loop, no new baseline.
	s.Start()
	eng.RunUntil(65)
	if got := len(s.Snapshots()); got != 6 {
		t.Fatalf("snapshots after a second Start = %d, want 6", got)
	}
}

// TestSnapshotsSince pins the incremental cursor contract: consumers
// (the serve loop's published /live window) read only the new tail,
// never re-copying the whole series.
func TestSnapshotsSince(t *testing.T) {
	eng, _, fs, jt := rig(t, false)
	f := mkFile(t, fs, "in", 10, 300)
	s := NewSampler(jt, Config{IntervalS: 1})
	s.Start()

	job := jt.Submit(mapreduce.JobSpec{NewMapper: nopMapper}, mapreduce.SplitsForFile(f))
	mapreduce.RunUntilDone(eng, job, 1e6)
	eng.RunUntil(eng.Now() + 5)

	n := s.SnapshotCount()
	if n < 5 {
		t.Fatalf("expected several snapshots, got %d", n)
	}
	all := s.SnapshotsSince(0)
	if len(all) != n {
		t.Fatalf("SnapshotsSince(0) len %d, want %d", len(all), n)
	}
	if got := s.SnapshotsSince(-3); len(got) != n {
		t.Fatalf("negative cursor clamps to 0: len %d, want %d", len(got), n)
	}
	mid := n / 2
	tail := s.SnapshotsSince(mid)
	if len(tail) != n-mid || tail[0].Time != all[mid].Time {
		t.Fatalf("mid cursor: len %d first t=%v, want len %d first t=%v",
			len(tail), tail[0].Time, n-mid, all[mid].Time)
	}
	if got := s.SnapshotsSince(n); got != nil {
		t.Fatalf("caught-up cursor returns nil, got %d snaps", len(got))
	}

	// New samples appear only past the old cursor.
	eng.RunUntil(eng.Now() + 3)
	fresh := s.SnapshotsSince(n)
	if len(fresh) == 0 || fresh[0].Time <= all[n-1].Time {
		t.Fatalf("fresh tail wrong: %d snaps, first t=%v after t=%v",
			len(fresh), fresh[0].Time, all[n-1].Time)
	}
}
