package mapreduce

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/mapreduce/executor"
	"dynamicmr/internal/sim"
)

// Chunk geometries for the reduce-input property.
const (
	geomInOrder     = iota // every chunk sorted, key ranges in order
	geomOverlapping        // every chunk sorted, key ranges overlapping
	geomUnsorted           // chunks in emit order
)

// randomChunks builds 0–40 chunks of 0–maxPairs pairs over 1–6
// distinct keys ("" among the candidates). Every value is a distinct
// record, so any reordering within a key shows in the output. Each
// chunk carries its real byte count, as map completion computes it,
// and about half the chunks that really are key-sorted carry the sorted
// hint.
func randomChunks(rng *rand.Rand, geom, maxPairs int) []mapChunk {
	pool := []string{"", "a", "ab", "b", "c", "zz"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	keys := pool[:1+rng.Intn(len(pool))]
	chunks := make([]mapChunk, rng.Intn(41))
	var all []string
	for c := range chunks {
		n := rng.Intn(maxPairs + 1)
		for i := 0; i < n; i++ {
			all = append(all, keys[rng.Intn(len(keys))])
		}
		chunks[c].pairs = make([]KeyValue, n)
	}
	if geom == geomInOrder {
		sort.Strings(all)
	}
	seq := 0
	for c := range chunks {
		ks := all[:len(chunks[c].pairs)]
		all = all[len(ks):]
		if geom == geomOverlapping {
			sort.Strings(ks)
		}
		for i, k := range ks {
			kv := KeyValue{Key: k,
				Value: data.NewRecord(kvSchema, []data.Value{data.Int(int64(seq)), data.Int(int64(c))})}
			chunks[c].pairs[i] = kv
			chunks[c].bytes += int64(len(kv.Key) + kv.Value.EncodedSize())
			seq++
		}
		chunks[c].sorted = sort.StringsAreSorted(ks) && rng.Intn(2) == 0
	}
	return chunks
}

// refGroup is one key group of the reference reduce input.
type refGroup struct {
	key  string
	vals []data.Record
}

// referenceGroups is the reduce input by definition, computed the plain
// way: a stable key sort of the chunks' concatenation, then a fresh
// values slice per key group.
func referenceGroups(chunks []mapChunk) []refGroup {
	var pairs []KeyValue
	for _, c := range chunks {
		pairs = append(pairs, c.pairs...)
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].Key < pairs[b].Key })
	var groups []refGroup
	for i := 0; i < len(pairs); {
		g := refGroup{key: pairs[i].Key}
		for ; i < len(pairs) && pairs[i].Key == g.key; i++ {
			g.vals = append(g.vals, pairs[i].Value)
		}
		groups = append(groups, g)
	}
	return groups
}

func sameRecords(a, b []data.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// TestReduceGroupsProperty runs random chunk geometries — sorted and in
// order, sorted but overlapping, unsorted — through execReducer and
// checks every reducer sees exactly the reference groups. Three
// reducers run: identity; one that appends to its values and keeps the
// result (the append must neither reach the next group nor be
// overwritten by it); and one that keeps every values slice, re-checked
// after the task.
func TestReduceGroupsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	r := newRig(t, nil)
	sentinel := data.NewRecord(kvSchema, []data.Value{data.Int(-1), data.Int(-1)})
	for trial := 0; trial < 300; trial++ {
		geom := trial % 3
		chunks := randomChunks(rng, geom, 60)
		want := referenceGroups(chunks)
		var seen []refGroup
		reducers := map[string]Reducer{
			"identity": IdentityReducer,
			"append": ReducerFunc(func(key string, values []data.Record, out *Collector) error {
				values = append(values, sentinel)
				seen = append(seen, refGroup{key, values})
				for _, v := range values {
					out.Emit(key, v)
				}
				return nil
			}),
			"keep": ReducerFunc(func(key string, values []data.Record, out *Collector) error {
				seen = append(seen, refGroup{key, values})
				out.Emit(key, values[0])
				return nil
			}),
		}
		for name, red := range reducers {
			seen = nil
			j := &Job{Conf: NewJobConf(),
				Spec: JobSpec{NewReducer: func(*JobConf) Reducer { return red }}}
			out, err := r.jt.execReducer(&ReduceTask{Job: j, chunks: chunks})
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("trial %d geom %d reducer %s", trial, geom, name)
			var wantOut []KeyValue
			for _, g := range want {
				switch name {
				case "identity":
					for _, v := range g.vals {
						wantOut = append(wantOut, KeyValue{g.key, v})
					}
				case "append":
					for _, v := range append(g.vals[:len(g.vals):len(g.vals)], sentinel) {
						wantOut = append(wantOut, KeyValue{g.key, v})
					}
				case "keep":
					wantOut = append(wantOut, KeyValue{g.key, g.vals[0]})
				}
			}
			got := out.Pairs()
			if len(got) != len(wantOut) {
				t.Fatalf("%s: %d output pairs, want %d", ctx, len(got), len(wantOut))
			}
			for i := range got {
				if got[i].Key != wantOut[i].Key || got[i].Value.String() != wantOut[i].Value.String() {
					t.Fatalf("%s: output %d = (%q, %s), want (%q, %s)", ctx, i,
						got[i].Key, got[i].Value, wantOut[i].Key, wantOut[i].Value)
				}
			}
			if name == "identity" {
				continue
			}
			// Re-check what the reducer kept, now the task is over.
			if len(seen) != len(want) {
				t.Fatalf("%s: %d groups, want %d", ctx, len(seen), len(want))
			}
			for g := range want {
				wantVals := want[g].vals
				if name == "append" {
					wantVals = append(wantVals[:len(wantVals):len(wantVals)], sentinel)
				}
				if seen[g].key != want[g].key || !sameRecords(seen[g].vals, wantVals) {
					t.Fatalf("%s: kept group %d (%q) changed after the task", ctx, g, want[g].key)
				}
			}
		}
	}
}

// TestReducePrefixBytesFromCheckpoints: reducePrefix sizes a run's
// kept prefix from its map output collector's checkpoints, and the byte
// count must equal the pair-by-pair sum when the kept prefix ends just
// before, on and just after each of the run's checkpoints, and at a
// random limit, whose pairs are also checked. The runs have the shapes
// of TestReducePrefixProperty's random ones, grown past several
// checkpoints. Each is emitted under one key, as a sampling job's are,
// with values of random length, through a collector whose pairs the
// chunk shares, as a single-reduce map output's chunk does.
func TestReducePrefixBytesFromCheckpoints(t *testing.T) {
	if size := unsafe.Sizeof(mapChunk{}); size != 48 {
		t.Fatalf("mapChunk is %d bytes, past its 48-byte size class", size)
	}
	if size := unsafe.Sizeof(mapAttempt{}); size > 184 {
		t.Fatalf("mapAttempt is %d bytes, over the 184 it has kept in the 192-byte size class", size)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		chunks := randomChunks(rng, geomInOrder, 300)
		var total int64
		var limits []int64
		for i, ch := range chunks {
			c := new(Collector)
			for j := range ch.pairs {
				c.Emit("k", data.NewRecord(kvSchema, []data.Value{
					data.Int(total + int64(j)), data.Str(strings.Repeat("v", rng.Intn(12)))}))
			}
			chunks[i] = mapChunk{pairs: c.pairs[:len(c.pairs):len(c.pairs)], bytes: c.bytes, out: c, sorted: true}
			for m := int64(markEvery); m <= int64(len(c.pairs)); m += markEvery {
				limits = append(limits, total+m-1, total+m, total+m+1)
			}
			total += int64(len(c.pairs))
		}
		limits = append([]int64{rng.Int63n(total + 1)}, limits...)
		for i, limit := range limits {
			out := new(Collector)
			reducePrefix(chunks, limit, out)
			var want int64
			for _, kv := range out.Pairs() {
				want += int64(len(kv.Key) + kv.Value.EncodedSize())
			}
			if out.Bytes() != want {
				t.Fatalf("trial %d limit %d: %d output bytes, want %d", trial, limit, out.Bytes(), want)
			}
			if i == 0 && !samePairs(out.Pairs(), referenceOutput(chunks, limit)) {
				t.Fatalf("trial %d limit %d: output differs from the reference", trial, limit)
			}
		}
	}
}

// firstK is a prefix reducer keeping each key group's first k values,
// as sampling.Reducer does without Random. calls counts Reduce calls,
// which the runtime never makes.
type firstK struct {
	k     int64
	calls int
}

func (r *firstK) Reduce(key string, values []data.Record, out *Collector) error {
	r.calls++
	for _, v := range values[:min(len(values), int(r.k))] {
		out.Emit(key, v)
	}
	return nil
}

func (r *firstK) PrefixLimit() (int64, bool) { return r.k, true }

// TestReducePrefixProperty runs the random chunk geometries of
// TestReduceGroupsProperty through the prefix path — the identity and
// first-k at limits 0, 1, a random value below the total and one at or
// above it — and requires the same output pairs, in the same order, and
// the same byte count as the values path gives for the same reducer
// wrapped in a plain ReducerFunc, which the runtime cannot recognise.
func TestReducePrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	r := newRig(t, nil)
	for trial := 0; trial < 600; trial++ {
		geom := trial % 3
		chunks := randomChunks(rng, geom, 60)
		total := 0
		for _, c := range chunks {
			total += len(c.pairs)
		}
		var below int64
		if total > 0 {
			below = rng.Int63n(int64(total))
		}
		reducers := []struct {
			name string
			red  PrefixReducer
		}{
			{"identity", IdentityReducer.(PrefixReducer)},
			{"first-0", &firstK{k: 0}},
			{"first-1", &firstK{k: 1}},
			{"first-below", &firstK{k: below}},
			{"first-above", &firstK{k: int64(total) + rng.Int63n(3)}},
		}
		for _, tc := range reducers {
			ctx := fmt.Sprintf("trial %d geom %d reducer %s", trial, geom, tc.name)
			run := func(red Reducer) *Collector {
				j := &Job{Conf: NewJobConf(), Spec: JobSpec{NewReducer: func(*JobConf) Reducer { return red }}}
				out, err := r.jt.execReducer(&ReduceTask{Job: j, chunks: chunks})
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				return out
			}
			got := run(tc.red)
			if fk, ok := tc.red.(*firstK); ok && fk.calls != 0 {
				t.Fatalf("%s: the prefix path called Reduce %d times", ctx, fk.calls)
			}
			want := run(ReducerFunc(tc.red.Reduce))
			if got.Len() != want.Len() {
				t.Fatalf("%s: %d output pairs, want %d", ctx, got.Len(), want.Len())
			}
			for i, kv := range got.Pairs() {
				w := want.Pairs()[i]
				if kv.Key != w.Key || kv.Value.String() != w.Value.String() {
					t.Fatalf("%s: output %d = (%q, %s), want (%q, %s)", ctx, i, kv.Key, kv.Value, w.Key, w.Value)
				}
			}
			if got.Bytes() != want.Bytes() {
				t.Fatalf("%s: %d output bytes, want %d", ctx, got.Bytes(), want.Bytes())
			}
		}
	}
}

// TestCollectorSortedHint checks the collector's sorted hint against a
// brute-force order check over random emit sequences, and that a
// recycled collector starts without a stale hint.
func TestCollectorSortedHint(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pool := []string{"", "a", "ab", "b"}
	rec := data.NewRecord(kvSchema, []data.Value{data.Int(0), data.Int(0)})
	for trial := 0; trial < 1000; trial++ {
		keys := make([]string, rng.Intn(8))
		for i := range keys {
			keys[i] = pool[rng.Intn(len(pool))]
		}
		if trial%2 == 0 {
			sort.Strings(keys) // sorted sequences as often as not
		}
		c := newCollector()
		for _, k := range keys {
			c.Emit(k, rec)
		}
		if want := sort.StringsAreSorted(keys); c.unsorted == want {
			t.Fatalf("trial %d: keys %q: unsorted hint %v, want %v", trial, keys, c.unsorted, !want)
		}
		recycleCollector(c)
		if c.unsorted {
			t.Fatalf("trial %d: a recycled collector kept the unsorted hint", trial)
		}
	}
}

// TestSharedMapOutputUnmodified memoises a job's map output, then runs
// further jobs over the same MapOutputCache in every combination of 1
// and 4 reduces, scan pool off and on, and two reducers. The
// memoised collectors — which single-reduce chunks now reference
// instead of copying — must come out unchanged, and no job's Output()
// may share a backing array with another job's or with the memo.
func TestSharedMapOutputUnmodified(t *testing.T) {
	const memo = "shared|v1"
	srcs := makeSrcs(12, 40)
	// Map output in descending key order per split, so a sort in place
	// anywhere downstream would show in the memo.
	spec := func(reduces int, reducer Reducer) JobSpec {
		conf := NewJobConf()
		conf.SetInt(ConfNumReduces, int64(reduces))
		return JobSpec{
			Conf: conf,
			NewMapper: func(*JobConf) Mapper {
				return MapperFunc(func(rec data.Record, out *Collector) error {
					v := rec.MustGet("K").AsInt()
					out.Emit(fmt.Sprintf("k%d", 9-v%10), rec)
					return nil
				})
			},
			NewReducer: func(*JobConf) Reducer { return reducer },
			MemoKey:    memo,
		}
	}
	appending := ReducerFunc(func(key string, values []data.Record, out *Collector) error {
		values = append(values, values[0])
		for _, v := range values {
			out.Emit(key, v)
		}
		return nil
	})
	run := func(cache *MapOutputCache, reduces int, pool *executor.Pool, red Reducer) *Job {
		eng := sim.NewEngine()
		cl := cluster.New(eng, cluster.PaperConfig())
		f, err := dfs.New(cl).Create("in", srcs, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MapOutputCache = cache
		cfg.ScanExecutor = pool
		j := NewJobTracker(cl, cfg, nil).Submit(spec(reduces, red), SplitsForFile(f))
		if !RunUntilDone(eng, j, 1e7) || j.State() != StateSucceeded {
			t.Fatalf("reduces=%d pool=%v: state %v (%s)", reduces, pool != nil, j.State(), j.Failure())
		}
		return j
	}
	type memoKey struct {
		src data.Source
		key string
	}
	snapshot := func(cache *MapOutputCache) map[memoKey]string {
		cache.mu.Lock()
		defer cache.mu.Unlock()
		snap := make(map[memoKey]string)
		for key, tab := range cache.tables {
			for src, c := range tab.m {
				var b strings.Builder
				for _, kv := range c.Pairs() {
					fmt.Fprintf(&b, "%q=%s;", kv.Key, kv.Value)
				}
				snap[memoKey{src, key}] = b.String()
			}
		}
		return snap
	}

	cache := NewMapOutputCache()
	jobs := []*Job{run(cache, 1, nil, IdentityReducer)}
	before := snapshot(cache)
	if len(before) != len(srcs) {
		t.Fatalf("memoised %d splits, want %d", len(before), len(srcs))
	}
	pool := executor.NewPool(2)
	defer pool.Close()
	for _, reduces := range []int{1, 4} {
		for _, p := range []*executor.Pool{nil, pool} {
			for _, red := range []Reducer{IdentityReducer, appending} {
				jobs = append(jobs, run(cache, reduces, p, red))
			}
		}
	}
	after := snapshot(cache)
	for k, s := range before {
		if after[k] != s {
			t.Fatalf("memoised output of %v changed:\nbefore %s\nafter  %s", k, s, after[k])
		}
	}

	// Backing arrays, as [start, end) address ranges.
	type span struct {
		name       string
		start, end uintptr
	}
	var spans []span
	add := func(name string, s []KeyValue) {
		if cap(s) == 0 {
			return
		}
		start := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
		spans = append(spans, span{name, start, start + uintptr(cap(s))*unsafe.Sizeof(KeyValue{})})
	}
	for i, j := range jobs {
		if len(j.Output()) == 0 {
			t.Fatalf("job %d: empty output", i)
		}
		add(fmt.Sprintf("job %d output", i), j.Output())
	}
	cache.mu.Lock()
	for _, tab := range cache.tables {
		for src, c := range tab.m {
			add(fmt.Sprintf("memo %v", src), c.Pairs())
		}
	}
	cache.mu.Unlock()
	for a := range spans {
		for b := a + 1; b < len(spans); b++ {
			if spans[a].start < spans[b].end && spans[b].start < spans[a].end {
				t.Fatalf("%s and %s share a backing array", spans[a].name, spans[b].name)
			}
		}
	}
}

// TestMemoServedAttemptAllocs pins the heap objects one memo-served map
// attempt costs, measured as the extra allocations of a 160-split job
// over an 80-split one of BenchmarkFirstKShuffle's shape, per extra
// split. They are five: the MapTask, the attempt, its bound advance
// callback, and its disk and CPU demands. Scheduler picks, heartbeats,
// completion events and the resources' buffers allocate nothing per
// attempt.
func TestMemoServedAttemptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	perJob := func(splits int) float64 {
		return testing.AllocsPerRun(10, memoServedJob(t, splits, "test|first-k", &firstK{k: 1000}))
	}
	small, large := perJob(80), perJob(160)
	if got := (large - small) / 80; math.Round(got) != 5 {
		t.Fatalf("%.2f objects per memo-served map attempt (%v per 160-split job, %v per 80-split job), want 5",
			got, large, small)
	}
}
