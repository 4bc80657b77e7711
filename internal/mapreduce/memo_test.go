package mapreduce

import (
	"sync/atomic"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/sim"
)

// newMemoRig builds a testRig whose JobTracker shares the given cache.
func newMemoRig(t *testing.T, cache *MapOutputCache) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	cfg := DefaultConfig()
	cfg.MapOutputCache = cache
	return &testRig{eng: eng, cl: cl, fs: dfs.New(cl), jt: NewJobTracker(cl, cfg, nil)}
}

// makeSrcs builds sources usable across rigs: the cache keys on source
// identity, so cross-rig sharing (as the experiment dsCache provides)
// requires the same source values in every rig's DFS.
func makeSrcs(blocks, recsEach int) []data.Source {
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
	return srcs
}

// countingSpec returns a dummy-key JobSpec whose real mapper
// constructions are counted (a memo hit skips construction entirely).
func countingSpec(memoKey string, execs *atomic.Int64) JobSpec {
	return JobSpec{
		NewMapper: func(*JobConf) Mapper {
			execs.Add(1)
			return dummyKeyMapper{}
		},
		MemoKey: memoKey,
	}
}

func TestMapOutputCacheMemoisesAcrossJobs(t *testing.T) {
	cache := NewMapOutputCache()
	r := newMemoRig(t, cache)
	f := r.makeFile(t, "in", 8, 100)
	var execs atomic.Int64

	job1 := r.jt.Submit(countingSpec("memo|v1", &execs), SplitsForFile(f))
	if !RunUntilDone(r.eng, job1, 1e6) || job1.State() != StateSucceeded {
		t.Fatalf("job1: state=%v failure=%q", job1.State(), job1.Failure())
	}
	if got := execs.Load(); got != 8 {
		t.Fatalf("job1 real map executions = %d, want 8", got)
	}

	job2 := r.jt.Submit(countingSpec("memo|v1", &execs), SplitsForFile(f))
	if !RunUntilDone(r.eng, job2, 1e6) || job2.State() != StateSucceeded {
		t.Fatalf("job2: state=%v failure=%q", job2.State(), job2.Failure())
	}
	if got := execs.Load(); got != 8 {
		t.Fatalf("job2 re-ran mappers: executions = %d, want 8 (all splits memoised)", got)
	}
	if len(job1.Output()) != len(job2.Output()) {
		t.Fatalf("output sizes differ: %d vs %d", len(job1.Output()), len(job2.Output()))
	}
	if job1.Counters.MapOutputRecords != job2.Counters.MapOutputRecords ||
		job1.Counters.MapInputRecords != job2.Counters.MapInputRecords {
		t.Fatalf("counters diverged: %+v vs %+v", job1.Counters, job2.Counters)
	}
	hits, misses := cache.Stats()
	if hits != 8 || misses != 8 {
		t.Fatalf("cache stats hits=%d misses=%d, want 8/8", hits, misses)
	}

	// A different MemoKey must not collide with the cached outputs.
	job3 := r.jt.Submit(countingSpec("memo|v2", &execs), SplitsForFile(f))
	if !RunUntilDone(r.eng, job3, 1e6) || job3.State() != StateSucceeded {
		t.Fatalf("job3: state=%v failure=%q", job3.State(), job3.Failure())
	}
	if got := execs.Load(); got != 16 {
		t.Fatalf("distinct MemoKey hit the cache: executions = %d, want 16", got)
	}

	// An empty MemoKey opts out of memoization entirely.
	before := len(cache.m)
	job4 := r.jt.Submit(countingSpec("", &execs), SplitsForFile(f))
	if !RunUntilDone(r.eng, job4, 1e6) || job4.State() != StateSucceeded {
		t.Fatalf("job4: state=%v failure=%q", job4.State(), job4.Failure())
	}
	if got := execs.Load(); got != 24 {
		t.Fatalf("empty MemoKey was memoised: executions = %d, want 24", got)
	}
	if len(cache.m) != before {
		t.Fatalf("empty MemoKey stored entries: len %d -> %d", before, len(cache.m))
	}
}

// A cache hit must not perturb the simulation: virtual-time costs are
// charged from split metadata before the mapper runs, so a fresh rig
// with a pre-warmed cache reports exactly the response time of a rig
// that computes for real.
func TestMapOutputCacheDoesNotChangeVirtualTime(t *testing.T) {
	var execs atomic.Int64
	srcs := makeSrcs(8, 100)

	cold := newMemoRig(t, nil)
	f1, err := cold.fs.Create("in", srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	j1 := cold.jt.Submit(countingSpec("memo|vt", &execs), SplitsForFile(f1))
	if !RunUntilDone(cold.eng, j1, 1e6) || j1.State() != StateSucceeded {
		t.Fatalf("cold job: state=%v", j1.State())
	}

	cache := NewMapOutputCache()
	warmup := newMemoRig(t, cache)
	f2, err := warmup.fs.Create("in", srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	jw := warmup.jt.Submit(countingSpec("memo|vt", &execs), SplitsForFile(f2))
	if !RunUntilDone(warmup.eng, jw, 1e6) || jw.State() != StateSucceeded {
		t.Fatalf("warmup job: state=%v", jw.State())
	}

	execs.Store(0)
	warm := newMemoRig(t, cache)
	f3, err := warm.fs.Create("in", srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	j3 := warm.jt.Submit(countingSpec("memo|vt", &execs), SplitsForFile(f3))
	if !RunUntilDone(warm.eng, j3, 1e6) || j3.State() != StateSucceeded {
		t.Fatalf("warm job: state=%v", j3.State())
	}
	if got := execs.Load(); got != 0 {
		t.Fatalf("warm rig ran %d real mappers, want 0 (all splits cached)", got)
	}
	if j1.ResponseTime() != j3.ResponseTime() {
		t.Fatalf("memoization changed virtual time: cold %v, warm %v", j1.ResponseTime(), j3.ResponseTime())
	}
	if len(j1.Output()) != len(j3.Output()) {
		t.Fatalf("memoization changed output: %d vs %d pairs", len(j1.Output()), len(j3.Output()))
	}
}

// Trackers on separate goroutines may share one cache over the same
// sources; run under -race.
func TestMapOutputCacheConcurrentTrackers(t *testing.T) {
	cache := NewMapOutputCache()
	srcs := makeSrcs(8, 100)
	var execs atomic.Int64
	results := make(chan int, 4)
	for g := 0; g < 4; g++ {
		go func() {
			r := newMemoRig(t, cache)
			f, err := r.fs.Create("in", srcs, 1)
			if err != nil {
				results <- -1
				return
			}
			job := r.jt.Submit(countingSpec("memo|conc", &execs), SplitsForFile(f))
			if !RunUntilDone(r.eng, job, 1e6) || job.State() != StateSucceeded {
				results <- -1
				return
			}
			results <- len(job.Output())
		}()
	}
	for g := 0; g < 4; g++ {
		if n := <-results; n != 800 {
			t.Fatalf("concurrent tracker output = %d, want 800", n)
		}
	}
	if got := len(cache.m); got != 8 {
		t.Fatalf("cache entries = %d, want 8 (shared sources dedupe across trackers)", got)
	}
}
