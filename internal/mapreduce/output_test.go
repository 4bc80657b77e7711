package mapreduce

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/sim"
)

// zeroPairs reports whether every pair of s is the zero KeyValue, byte
// for byte: such an array references no key and no row.
func zeroPairs(s []KeyValue) bool {
	if len(s) == 0 {
		return true
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(KeyValue{})))
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// sharesArray reports whether a and b overlap in memory anywhere up to
// their capacities.
func sharesArray(a, b []KeyValue) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(KeyValue{})
	a0 := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*size && b0 < a0+uintptr(cap(a))*size
}

// referenceOutput is a finished partition's reduce output by
// definition: the stable key sort of its chunks, each group cut to its
// first limit values.
func referenceOutput(chunks []mapChunk, limit int64) []KeyValue {
	var out []KeyValue
	for _, g := range referenceGroups(chunks) {
		for i, v := range g.vals {
			if int64(i) < limit {
				out = append(out, KeyValue{g.key, v})
			}
		}
	}
	return out
}

func samePairs(a, b []KeyValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Value.String() != b[i].Value.String() {
			return false
		}
	}
	return true
}

// lifetimeJob is one job of the closed loop and what its output must
// be: one reference per reduce partition, concatenated in the order the
// partitions finished.
type lifetimeJob struct {
	job   *Job
	kind  string
	limit int64
	refs  [][]KeyValue
}

// checkOutput compares the job's output with its references.
func (lj *lifetimeJob) checkOutput() error {
	out := lj.job.Output()
	if lj.job.State() == StateFailed {
		if out != nil {
			return fmt.Errorf("failed job has %d output pairs", len(out))
		}
		return nil
	}
	switch len(lj.refs) {
	case 1:
		if !samePairs(out, lj.refs[0]) {
			return fmt.Errorf("output of %d pairs differs from its reference of %d", len(out), len(lj.refs[0]))
		}
	case 2:
		a, b := lj.refs[0], lj.refs[1]
		ab := append(append([]KeyValue(nil), a...), b...)
		ba := append(append([]KeyValue(nil), b...), a...)
		if !samePairs(out, ab) && !samePairs(out, ba) {
			return fmt.Errorf("output of %d pairs is neither order of its partitions' references (%d + %d)", len(out), len(a), len(b))
		}
	}
	return nil
}

// TestOutputLifetimeClosedLoop runs a seeded closed loop of memo-served
// jobs whose outputs differ in size — identity, first-k below, at and
// above the match count, first-k through the values path, a two-reduce
// job, and a job the injector fails — and retires each finished job
// three completions later, so several outputs are live while retired
// arrays are handed on. Every output must equal its reference when
// the job finishes and again just before Retire. After every engine
// step no two live outputs may share a backing array, every live
// output must be zero past its length, every kept array must be zero,
// and every retired job's Output must be nil.
func TestOutputLifetimeClosedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	cfg := DefaultConfig()
	cfg.MapOutputCache = NewMapOutputCache()
	cfg.FailureInjector = func(j *Job, _ *MapTask) bool { return j.Name == "fail" }
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	r := &testRig{eng: eng, cl: cl, fs: dfs.New(cl), jt: NewJobTracker(cl, cfg, nil)}
	f := r.makeFile(t, "in", 12, 20)
	const matches = 12 * 20

	submit := func() *lifetimeJob {
		kinds := []string{"identity", "first-below", "first-at", "first-above", "values", "two-reduce", "fail"}
		lj := &lifetimeJob{kind: kinds[rng.Intn(len(kinds))], limit: matches}
		conf := NewJobConf()
		spec := JobSpec{
			Conf:      conf,
			NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
			MemoKey:   "lifetime|dummy",
		}
		switch lj.kind {
		case "first-below":
			lj.limit = 1 + rng.Int63n(matches-1)
		case "first-above":
			lj.limit = matches + 1 + rng.Int63n(5)
		case "values":
			lj.limit = 1 + rng.Int63n(matches+5)
		case "two-reduce":
			conf.SetInt(ConfNumReduces, 2)
			spec.NewMapper = func(*JobConf) Mapper { return countMapper{} }
			spec.MemoKey = "lifetime|count"
		case "fail":
			conf.Set(ConfJobName, "fail")
		}
		switch lj.kind {
		case "first-below", "first-at", "first-above":
			red := &firstK{k: lj.limit}
			spec.NewReducer = func(*JobConf) Reducer { return red }
		case "values":
			red := &firstK{k: lj.limit}
			spec.NewReducer = func(*JobConf) Reducer { return ReducerFunc(red.Reduce) }
		}
		lj.job = r.jt.Submit(spec, SplitsForFile(f))
		return lj
	}

	const users, lag, completions = 3, 3, 80
	running := make([]*lifetimeJob, users)
	for u := range running {
		running[u] = submit()
	}
	var live, retired []*lifetimeJob
	kinds := map[string]int{}
	check := func(step int) {
		for _, lj := range retired {
			if lj.job.Output() != nil {
				t.Fatalf("step %d: retired %s job %d still has an output", step, lj.kind, lj.job.ID)
			}
		}
		var outs [][]KeyValue
		for _, lj := range append(append([]*lifetimeJob(nil), live...), running...) {
			out := lj.job.Output()
			for _, o := range outs {
				if sharesArray(o, out) {
					t.Fatalf("step %d: %s job %d's output shares a backing array with another live job's", step, lj.kind, lj.job.ID)
				}
			}
			outs = append(outs, out)
		}
		for i, out := range outs {
			if !zeroPairs(out[len(out):cap(out)]) {
				t.Fatalf("step %d: live output %d is not zero past its %d pairs", step, i, len(out))
			}
		}
		for i, k := range r.jt.keptOutputs {
			if !zeroPairs(k[:cap(k)]) {
				t.Fatalf("step %d: kept array %d references rows", step, i)
			}
			for _, o := range outs {
				if sharesArray(o, k) {
					t.Fatalf("step %d: kept array %d is also a live job's output", step, i)
				}
			}
		}
	}
	done := 0
	for step := 0; done < completions; step++ {
		if !r.eng.Step() {
			t.Fatalf("event queue drained after %d completions", done)
		}
		for u, lj := range running {
			if !lj.job.Done() {
				continue
			}
			j := lj.job
			for p := 0; j.State() == StateSucceeded && p < j.numReduces; p++ {
				lj.refs = append(lj.refs, referenceOutput(j.mapOutput[p], lj.limit))
			}
			if err := lj.checkOutput(); err != nil {
				t.Fatalf("step %d: %s job %d at completion: %v", step, lj.kind, j.ID, err)
			}
			kinds[lj.kind]++
			live = append(live, lj)
			if len(live) > lag {
				old := live[0]
				live = live[1:]
				if err := old.checkOutput(); err != nil {
					t.Fatalf("step %d: %s job %d before Retire: %v", step, old.kind, old.job.ID, err)
				}
				if err := r.jt.Retire(old.job); err != nil {
					t.Fatal(err)
				}
				retired = append(retired, old)
			}
			running[u] = submit()
			done++
		}
		check(step)
	}
	for _, k := range []string{"identity", "first-below", "first-at", "first-above", "values", "two-reduce", "fail"} {
		if kinds[k] == 0 {
			t.Errorf("the loop ran no %s job", k)
		}
	}
	if len(r.jt.keptOutputs) == 0 {
		t.Error("no retired output array was kept")
	}
}

// TestKeptOutputsBestFit checks the free list's policy directly: a
// take hands out the smallest kept array that covers the request, or
// nil, and a full list keeps its largest arrays.
func TestKeptOutputsBestFit(t *testing.T) {
	r := newRig(t, nil)
	jt := r.jt
	rec := KeyValue{Key: "k"}
	for _, n := range []int{8, 2, 32, 4} {
		s := make([]KeyValue, n)
		for i := range s {
			s[i] = rec
		}
		jt.keepOutput(s)
	}
	jt.keepOutput(nil) // nothing to keep
	if len(jt.keptOutputs) != 4 {
		t.Fatalf("kept %d arrays, want 4", len(jt.keptOutputs))
	}
	for _, tc := range []struct{ n, cap int }{{3, 4}, {3, 8}, {9, 32}, {33, -1}, {1, 2}} {
		got := jt.takeOutput(tc.n)
		switch {
		case tc.cap < 0 && got != nil:
			t.Fatalf("take(%d) = cap %d, want nil", tc.n, cap(got))
		case tc.cap >= 0 && (cap(got) != tc.cap || len(got) != 0 || !zeroPairs(got[:cap(got)])):
			t.Fatalf("take(%d) = len %d cap %d, want an empty cleared array of cap %d", tc.n, len(got), cap(got), tc.cap)
		}
	}
	for i := 1; i <= maxKeptOutputs+4; i++ {
		jt.keepOutput(make([]KeyValue, i))
	}
	if len(jt.keptOutputs) != maxKeptOutputs {
		t.Fatalf("kept %d arrays, want the cap %d", len(jt.keptOutputs), maxKeptOutputs)
	}
	for _, k := range jt.keptOutputs {
		if cap(k) <= 4 {
			t.Fatalf("a full list kept a %d-pair array over larger ones", cap(k))
		}
	}
}
