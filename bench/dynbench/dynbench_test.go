package dynbench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/tpch"
)

// Reduced round lengths: enough jobs for every workload to warm its
// memo, grow dynamic jobs and (mixed-reduce) run static ones.
var testJobs = map[string]int{SampleSkew: 120, MixedReduce: 25, AdhocScan: 10, Observed: 120}

func newTestRunner(t *testing.T, workload string, seed int64) *Runner {
	t.Helper()
	rn, err := NewRunner(Options{Workload: workload, Seed: seed, Jobs: testJobs[workload], WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return rn
}

func round(t *testing.T, rn *Runner, traced bool) *Round {
	t.Helper()
	rd, err := rn.Round(traced)
	if err != nil {
		t.Fatal(err)
	}
	w := rn.plan.workload
	if rd.Failed > 0 {
		t.Fatalf("%s: %d jobs failed: %v", w, rd.Failed, rd.Errors)
	}
	if rd.Jobs != testJobs[w] {
		t.Fatalf("%s: %d jobs completed, want %d", w, rd.Jobs, testJobs[w])
	}
	return rd
}

// The decorators must not change what the program does, and a seed must
// replay exactly: traced and untraced rounds, and rounds of a second
// runner on the same seed, agree on every exact count and the result
// digest, while another seed changes the digest. The untraced rounds
// also show the shape each workload exists for.
func TestWorkloads(t *testing.T) {
	plain := map[string]*Round{}
	t.Run("replay", func(t *testing.T) {
		for _, w := range Workloads {
			rn := newTestRunner(t, w, 1)
			plain[w] = round(t, rn, false)
			t.Run(w, func(t *testing.T) {
				t.Parallel()
				traced := round(t, rn, true)
				again := round(t, newTestRunner(t, w, 1), true)
				other := round(t, newTestRunner(t, w, 2), false)

				if traced.Counts.ScanRecords == 0 || traced.Counts.ScanRecords != again.Counts.ScanRecords {
					t.Errorf("scan records: traced %d, same-seed traced %d", traced.Counts.ScanRecords, again.Counts.ScanRecords)
				}
				want := plain[w].Counts
				for name, rd := range map[string]*Round{"traced": traced, "same-seed runner": again} {
					got := rd.Counts
					got.ScanRecords = 0
					if got != want {
						t.Errorf("%s round differs from the untraced one:\n got %+v\nwant %+v", name, got, want)
					}
				}
				if other.Counts.Digest == want.Digest {
					t.Errorf("seed 2 replayed seed 1's digest %x", want.Digest)
				}
				if traced.SchedCalls == 0 || traced.HiveQueries == 0 || traced.ScanCalls == 0 {
					t.Errorf("decorators saw nothing: sched %d, hive %d, scan %d calls",
						traced.SchedCalls, traced.HiveQueries, traced.ScanCalls)
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	// sample-skew serves maps from the memo, adhoc-scan never hits it,
	// mixed-reduce shuffles every match of its static jobs, and only
	// observed records trace spans and flushes.
	hitRatio := func(c Counts) float64 { return float64(c.MemoHits) / float64(c.MemoHits+c.MemoMisses) }
	if r := hitRatio(plain[SampleSkew].Counts); r < 0.5 {
		t.Errorf("sample-skew memo hit ratio %.2f, want most maps served from the memo", r)
	}
	if c := plain[AdhocScan].Counts; c.MemoHits != 0 || c.MemoMisses == 0 {
		t.Errorf("adhoc-scan memo hits %d of %d lookups, want none", c.MemoHits, c.MemoHits+c.MemoMisses)
	}
	perJob := func(rd *Round) int64 { return rd.Counts.ShuffleRecords / int64(rd.Jobs) }
	if s, m := perJob(plain[MixedReduce]), perJob(plain[SampleSkew]); s < 10*m {
		t.Errorf("mixed-reduce shuffles %d records per job, sample-skew %d: want the static jobs to dominate", s, m)
	}
	for w, rd := range plain {
		observed := w == Observed
		if (rd.Counts.TraceSpans > 0) != observed || (rd.FlushS > 0) != observed || (rd.ArchiveMB > 0) != observed {
			t.Errorf("%s: trace spans %d, flush %.3fs, archive %.3f MB", w, rd.Counts.TraceSpans, rd.FlushS, rd.ArchiveMB)
		}
	}
}

// A dropped row, a duplicated row and a row that does not match each
// fail exactly the job they were injected into.
func TestOracleCatchesFaults(t *testing.T) {
	faults := map[int64]func(rows []mapreduce.KeyValue) []mapreduce.KeyValue{
		3: func(rows []mapreduce.KeyValue) []mapreduce.KeyValue { return rows[:len(rows)-1] }, // dropped
		5: func(rows []mapreduce.KeyValue) []mapreduce.KeyValue { // duplicated
			out := append([]mapreduce.KeyValue(nil), rows...)
			out[1] = out[0]
			return out
		},
		7: func(rows []mapreduce.KeyValue) []mapreduce.KeyValue { // not matching
			out := append([]mapreduce.KeyValue(nil), rows...)
			out[0].Value = withValue(out[0].Value, 0, data.Int(-1))
			if out[0].Value.Len() == 4 { // ad hoc rows: break the predicate instead
				out[0].Value = withValue(out[0].Value, 2, data.Int(99))
			}
			return out
		},
	}
	for _, w := range []string{SampleSkew, AdhocScan} {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			rn := newTestRunner(t, w, 1)
			rn.opt.tamper = func(qid int64, rows []mapreduce.KeyValue) []mapreduce.KeyValue {
				if fault, ok := faults[qid]; ok {
					return fault(rows)
				}
				return rows
			}
			rd, err := rn.Round(false)
			if err != nil {
				t.Fatal(err)
			}
			if rd.Failed != len(faults) {
				t.Fatalf("failed jobs %d, want the %d tampered ones: %v", rd.Failed, len(faults), rd.Errors)
			}
			for i, qid := range []int64{3, 5, 7} {
				if want := fmt.Sprintf("query %d ", qid); !strings.HasPrefix(rd.Errors[i], want) {
					t.Errorf("failure %d is %q, want one for query %d", i, rd.Errors[i], qid)
				}
			}
			if err := (&Result{Workload: w, Rounds: []*Round{rd}}).Check(); err == nil {
				t.Error("Check passed a run with failed jobs")
			}
		})
	}
}

func withValue(r data.Record, i int, v data.Value) data.Record {
	vals := make([]data.Value, r.Len())
	for j := range vals {
		vals[j] = r.At(j)
	}
	vals[i] = v
	return data.NewRecord(r.Schema(), vals)
}

// The oracle's time is subtracted from every timing, and its checks
// allocate nothing, so it cannot move the allocation metrics either.
func TestChecksAllocateNothing(t *testing.T) {
	ds, err := dataset.Build(dataset.Spec{Name: "t", Scale: 1, Seed: 5, Z: 2, Partitions: 4, RowsOverride: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := newPlantedTruth(ds)
	if err != nil {
		t.Fatal(err)
	}
	proj, _ := tpch.LineItemSchema.Project("L_ORDERKEY", "L_PARTKEY", "L_SUPPKEY")
	var planted []mapreduce.KeyValue
	for _, p := range ds.Partitions() {
		recs, _ := p.AcceleratedMatches(ds.PredicateFingerprint(), -1)
		for _, r := range recs {
			planted = append(planted, mapreduce.KeyValue{Key: "k", Value: r.Project(proj)})
		}
	}

	q := adhocQueries(3, 1)[0]
	o, err := newAdhocOracle(ds, []query{q})
	if err != nil {
		t.Fatal(err)
	}
	adhocProj, _ := tpch.LineItemSchema.Project("L_ORDERKEY", "L_LINENUMBER", "L_QUANTITY", "L_DISCOUNT")
	var adhoc []mapreduce.KeyValue
	ds.Partition(0).Scan(func(r data.Record) bool {
		if ok, _ := expr.EvalBool(o.preds[q.sql], r); ok {
			adhoc = append(adhoc, mapreduce.KeyValue{Key: "k", Value: r.Project(adhocProj)})
		}
		return int64(len(adhoc)) < q.k
	})
	q.k = int64(len(adhoc)) // a full result, so check never recounts

	dg := digestOffset
	for name, check := range map[string]func() error{
		"planted": func() error { return truth.check(planted, -1) },
		"adhoc":   func() error { return o.check(adhoc, q) },
		"digest":  func() error { dg.job(1, planted); return nil },
	} {
		if err := check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(20, func() { _ = check() }); n != 0 {
			t.Errorf("%s check allocates %.0f times per call", name, n)
		}
	}
}

// A trace-mode run alternates untraced and traced rounds and reports
// every per-layer metric.
func TestRunTraceMode(t *testing.T) {
	res, err := Run(Options{Workload: AdhocScan, Seed: 1, Jobs: testJobs[AdhocScan]}, 1e-3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 || res.Rounds[0].Traced || !res.Rounds[1].Traced {
		t.Fatalf("rounds %d, want untraced/traced pairs", len(res.Rounds))
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	layers := res.PerLayer()
	names := []string{TraceOverhead}
	for _, m := range PerLayer {
		names = append(names, m.Name)
	}
	for _, name := range names {
		if v, ok := layers[name]; !ok || math.IsNaN(v.Value) {
			t.Errorf("%s missing or NaN: %+v", name, v)
		}
	}
	for name, m := range res.EndToEnd() {
		if !(m.Value > 0) {
			t.Errorf("end-to-end %s = %v, want a positive measurement", name, m.Value)
		}
	}
}

// Quartiles follow Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.4, 2.2}, 0.4, 2.2, 3.1},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{9.5, 1.25, 7, 3, 3, 8}, 2.5625, 5, 8.375},
	} {
		q1, m, q3 := Quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	runs := func(base float64, deltas ...float64) map[int64]float64 {
		m := map[int64]float64{}
		for i, d := range deltas {
			m[int64(i)] = base + d
		}
		return m
	}
	steady := []float64{-1, 0, 1, -0.5, 0.5, 0.2, -0.2, 0.8, -0.8, 0}
	for _, c := range []struct {
		name         string
		old, neu     map[int64]float64
		higherBetter bool
		want         string
	}{
		{"faster", runs(100, steady...), runs(110, steady...), true, Better},
		{"slower", runs(100, steady...), runs(85, steady...), true, Worse},
		{"lower latency", runs(100, steady...), runs(90, steady...), false, Better},
		{"within bound", runs(100, steady...), runs(98, steady...), true, Unchanged},
		{"noisy", runs(100, -30, 30, -20, 20, 0), runs(101, -30, 30, -20, 20, 0), true, Unresolved},
		{"noisy but dominant", runs(100, -30, 30, -20, 20, 0), runs(300, -30, 30, -20, 20, 0), true, Better},
	} {
		if got := Compare(c.old, c.neu, c.higherBetter, 0.08).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json names exactly the metrics a run reports, with the same
// units.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !slices.Equal(workloads, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", workloads, Workloads)
	}
	res := &Result{Rounds: []*Round{{Jobs: 1, LoopS: 1}, {Jobs: 1, LoopS: 1, Traced: true}}}
	for kind, c := range map[string]struct {
		listed []struct{ Name, Unit string }
		got    map[string]Metric
	}{"end_to_end": {bf.EndToEnd, res.EndToEnd()}, "per_layer": {bf.PerLayer, res.PerLayer()}} {
		if len(c.listed) != len(c.got) {
			t.Errorf("%s lists %d metrics, a run reports %d", kind, len(c.listed), len(c.got))
		}
		for _, m := range c.listed {
			if got, ok := c.got[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s %s (%s): a run reports %+v", kind, m.Name, m.Unit, got)
			}
		}
	}
}
