package mapreduce

import (
	"math/rand"
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
	before := cache.entries()
	job4 := r.jt.Submit(countingSpec("", &execs), SplitsForFile(f))
	if !RunUntilDone(r.eng, job4, 1e6) || job4.State() != StateSucceeded {
		t.Fatalf("job4: state=%v failure=%q", job4.State(), job4.Failure())
	}
	if got := execs.Load(); got != 24 {
		t.Fatalf("empty MemoKey was memoised: executions = %d, want 24", got)
	}
	if cache.entries() != before {
		t.Fatalf("empty MemoKey stored entries: len %d -> %d", before, cache.entries())
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
// sources, and their jobs one memo table; run under -race.
func TestMapOutputCacheConcurrentTrackers(t *testing.T) {
	cache := NewMapOutputCache()
	srcs := makeSrcs(8, 100)
	var execs atomic.Int64
	results := make(chan *Job, 4)
	for g := 0; g < 4; g++ {
		go func() {
			r := newMemoRig(t, cache)
			f, err := r.fs.Create("in", srcs, 1)
			if err != nil {
				results <- nil
				return
			}
			job := r.jt.Submit(countingSpec("memo|conc", &execs), SplitsForFile(f))
			if !RunUntilDone(r.eng, job, 1e6) || job.State() != StateSucceeded {
				results <- nil
				return
			}
			results <- job
		}()
	}
	var tab *memoTable
	for g := 0; g < 4; g++ {
		j := <-results
		if j == nil || len(j.Output()) != 800 {
			t.Fatalf("concurrent tracker job failed or lost output")
		}
		if tab == nil {
			tab = j.memoTab
		}
		if j.memoTab == nil || j.memoTab != tab {
			t.Fatalf("trackers' jobs with one memo key hold different tables")
		}
	}
	if got := cache.entries(); got != 8 {
		t.Fatalf("cache entries = %d, want 8 (shared sources dedupe across trackers)", got)
	}
	if hits, misses := cache.Stats(); hits+misses != 32 || misses < 8 {
		t.Fatalf("hits %d + misses %d, want 32 lookups with at least the 8 first ones missing", hits, misses)
	}
}

// Jobs resolve one table per effective memo key — jobs with one key
// share it, each input path of a fingerprinted key has its own, an
// empty key has none — and lookups count the hits and misses a single
// map keyed by (source, effective key) would: a random sequence of
// jobs checked against that model.
func TestMemoTablesMatchFlatMap(t *testing.T) {
	cache := NewMapOutputCache()
	r := newMemoRig(t, cache)
	files := []*dfs.File{makeStatFile(t, r, 5), r.makeFile(t, "plain", 3, 10)}
	type flatKey struct {
		src data.Source
		key string
	}
	seen := map[flatKey]bool{}
	tables := map[string]*memoTable{}
	var wantHits, wantMisses uint64
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 40; i++ {
		key := []string{"", "a|v1", "b|v1"}[rng.Intn(3)]
		mode := []string{InputPathFull, InputPathSkip, InputPathIndex}[rng.Intn(3)]
		f := files[rng.Intn(len(files))]
		job := runPathJob(t, r, f, mode, key)
		eff := key
		if key != "" && mode != InputPathFull {
			eff += "|path=" + mode
		}
		if job.memo != eff {
			t.Fatalf("job %d: memo %q, want %q", i, job.memo, eff)
		}
		if key == "" {
			if job.memoTab != nil {
				t.Fatalf("job %d: a job without a memo key holds a table", i)
			}
			continue
		}
		if prev, ok := tables[eff]; ok && prev != job.memoTab {
			t.Fatalf("job %d: two jobs with key %q hold different tables", i, eff)
		}
		tables[eff] = job.memoTab
		for _, sp := range SplitsForFile(f) {
			k := flatKey{sp.Block.Source, eff}
			if seen[k] {
				wantHits++
			} else {
				wantMisses++
				seen[k] = true
			}
		}
	}
	if hits, misses := cache.Stats(); hits != wantHits || misses != wantMisses {
		t.Fatalf("stats %d hits, %d misses; the flat map counts %d, %d", hits, misses, wantHits, wantMisses)
	}
	if len(cache.tables) != len(tables) || cache.entries() != len(seen) {
		t.Fatalf("%d tables of %d entries, want %d of %d", len(cache.tables), cache.entries(), len(tables), len(seen))
	}
}

// entries counts the cached outputs across every table.
func (c *MapOutputCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, tab := range c.tables {
		n += len(tab.m)
	}
	return n
}
