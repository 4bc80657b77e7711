package diag

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dynamicmr/internal/trace"
)

// span is a test shorthand for a trace.Span.
func span(name, cat string, start, end float64, job, task, att, node int, outcome string) trace.Span {
	return trace.Span{
		Name: name, Cat: cat, Start: start, End: end,
		Job: job, Task: task, Attempt: att, Node: node, Outcome: outcome,
	}
}

// goldenTrace builds a canned two-wave map job with a reduce: map task
// 0 runs in wave one, the GROW at t=30 admits map task 1 (wave two),
// and the reduce finishes the job at t=100. Every phase boundary is
// hand-placed so the expected critical path is known exactly.
func goldenTrace() ([]trace.Span, []trace.PolicyDecision) {
	spans := []trace.Span{
		span(trace.SpanJob, trace.CatJob, 0, 100, 0, -1, 0, -1, trace.OutcomeOK),
		// Wave one: map task 0 on node 2, local read.
		span(trace.SpanQueueWait, trace.CatMap, 0, 2, 0, 0, 1, 2, ""),
		span(trace.SpanMapAttempt, trace.CatMap, 2, 20, 0, 0, 1, 2, trace.OutcomeOK),
		span(trace.SpanStartup, trace.CatMap, 2, 3, 0, 0, 1, 2, ""),
		span(trace.SpanDiskRead, trace.CatMap, 3, 10, 0, 0, 1, 2, ""),
		span(trace.SpanMapCPU, trace.CatMap, 10, 20, 0, 0, 1, 2, ""),
		// Wave two: map task 1 on node 5, remote read (disk + net).
		span(trace.SpanQueueWait, trace.CatMap, 30, 32, 0, 1, 1, 5, ""),
		span(trace.SpanMapAttempt, trace.CatMap, 32, 50, 0, 1, 1, 5, trace.OutcomeOK),
		span(trace.SpanStartup, trace.CatMap, 32, 33, 0, 1, 1, 5, ""),
		span(trace.SpanDiskRead, trace.CatMap, 33, 40, 0, 1, 1, 5, ""),
		span(trace.SpanNetRead, trace.CatMap, 40, 44, 0, 1, 1, 5, ""),
		span(trace.SpanMapCPU, trace.CatMap, 44, 50, 0, 1, 1, 5, ""),
		// Reduce task 0 on node 7 closes the job.
		span(trace.SpanReduceAttempt, trace.CatReduce, 55, 100, 0, 0, 1, 7, trace.OutcomeOK),
		span(trace.SpanStartup, trace.CatReduce, 55, 56, 0, 0, 1, 7, ""),
		span(trace.SpanShuffle, trace.CatReduce, 56, 70, 0, 0, 1, 7, ""),
		span(trace.SpanSort, trace.CatReduce, 70, 80, 0, 0, 1, 7, ""),
		span(trace.SpanReduceCPU, trace.CatReduce, 80, 95, 0, 0, 1, 7, ""),
		span(trace.SpanOutputWrite, trace.CatReduce, 95, 100, 0, 0, 1, 7, ""),
	}
	decisions := []trace.PolicyDecision{
		{Time: 0, JobID: 0, Policy: "LA", Verdict: trace.VerdictInit, Added: 1},
		{Time: 25, JobID: 0, Policy: "LA", Verdict: trace.VerdictWait},
		{Time: 30, JobID: 0, Policy: "LA", Verdict: trace.VerdictGrow, Added: 1},
		{Time: 50, JobID: 0, Policy: "LA", Verdict: trace.VerdictEOI},
	}
	return spans, decisions
}

// TestGoldenCriticalPath pins the exact critical path of the canned
// two-wave trace: every node kind, boundary and attribution.
func TestGoldenCriticalPath(t *testing.T) {
	spans, decisions := goldenTrace()
	rep := Analyze(spans, decisions, nil, 0)
	if err := rep.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if len(rep.Jobs) != 1 {
		t.Fatalf("want 1 job, got %d", len(rep.Jobs))
	}
	j := rep.Jobs[0]
	if j.JobID != 0 || j.Outcome != "ok" || j.MakespanS != 100 {
		t.Fatalf("job header wrong: %+v", j)
	}

	type node struct {
		kind       string
		start, end float64
		task       int
	}
	want := []node{
		{KindSlotWait, 0, 2, 0},         // map 0 queue-wait
		{KindStartup, 2, 3, 0},          //
		{KindDiskReadLocal, 3, 10, 0},   // no net-read phase -> local
		{KindMapCPU, 10, 20, 0},         //
		{KindProviderWait, 20, 30, 1},   // gap ends at the GROW t=30
		{KindSlotWait, 30, 32, 1},       // map 1 queue-wait
		{KindStartup, 32, 33, 1},        //
		{KindDiskReadRemote, 33, 40, 1}, // net-read sibling -> remote
		{KindNetRead, 40, 44, 1},        //
		{KindMapCPU, 44, 50, 1},         //
		{KindSlotWait, 50, 55, 0},       // reduce not yet scheduled
		{KindStartup, 55, 56, 0},        //
		{KindShuffle, 56, 70, 0},        //
		{KindSort, 70, 80, 0},           //
		{KindReduceCPU, 80, 95, 0},      //
		{KindOutputWrite, 95, 100, 0},   //
	}
	if len(j.CriticalPath) != len(want) {
		for _, n := range j.CriticalPath {
			t.Logf("  got node %-18s [%g, %g] task %d", n.Kind, n.Start, n.End, n.Task)
		}
		t.Fatalf("want %d path nodes, got %d", len(want), len(j.CriticalPath))
	}
	for i, w := range want {
		g := j.CriticalPath[i]
		if g.Kind != w.kind || g.Start != w.start || g.End != w.end || g.Task != w.task {
			t.Errorf("node %d: want %+v, got kind=%s [%g, %g] task %d", i, w, g.Kind, g.Start, g.End, g.Task)
		}
	}

	// Breakdown follows from the path, so each component is exact.
	b := j.Breakdown
	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"slot-wait", b.SlotWaitS, 2 + 2 + 5},
		{"provider-wait", b.ProviderWaitS, 10},
		{"startup", b.StartupS, 1 + 1 + 1},
		{"data-read-local", b.DataReadLocalS, 7},
		{"data-read-remote", b.DataReadRemoteS, 7 + 4},
		{"map-compute", b.MapComputeS, 10 + 6},
		{"shuffle", b.ShuffleS, 14},
		{"reduce", b.ReduceS, 10 + 15 + 5},
		{"untraced", b.UntracedS, 0},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("breakdown %s: want %g, got %g", c.name, c.want, c.got)
		}
	}
	if b.Total() != 100 {
		t.Errorf("breakdown total: want 100, got %g", b.Total())
	}
}

// TestSlotWaitGap flips the golden trace's GROW decision away from the
// second wave's start so the same gap classifies as slot-wait.
func TestSlotWaitGap(t *testing.T) {
	spans, decisions := goldenTrace()
	// Move the GROW off t=30 and drop the in-gap WAIT: now nothing
	// attributes the [20,30] gap to the Input Provider.
	decisions = []trace.PolicyDecision{
		{Time: 0, JobID: 0, Policy: "LA", Verdict: trace.VerdictInit, Added: 2},
	}
	rep := Analyze(spans, decisions, nil, 0)
	if err := rep.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	j := rep.Jobs[0]
	found := false
	for _, n := range j.CriticalPath {
		if n.Start == 20 && n.End == 30 {
			found = true
			if n.Kind != KindSlotWait {
				t.Errorf("gap [20,30]: want %s, got %s", KindSlotWait, n.Kind)
			}
		}
	}
	if !found {
		t.Fatalf("gap [20,30] missing from path: %+v", j.CriticalPath)
	}
	if j.Breakdown.ProviderWaitS != 0 {
		t.Errorf("provider-wait should be 0 without GROW/WAIT evidence, got %g", j.Breakdown.ProviderWaitS)
	}
}

// TestWaitVerdictClassifiesGap puts a WAIT strictly inside the gap
// (with no GROW at its end) and expects provider-wait.
func TestWaitVerdictClassifiesGap(t *testing.T) {
	spans, _ := goldenTrace()
	decisions := []trace.PolicyDecision{
		{Time: 0, JobID: 0, Policy: "LA", Verdict: trace.VerdictInit, Added: 1},
		{Time: 24, JobID: 0, Policy: "LA", Verdict: trace.VerdictWait},
	}
	rep := Analyze(spans, decisions, nil, 0)
	j := rep.Jobs[0]
	for _, n := range j.CriticalPath {
		if n.Start == 20 && n.End == 30 && n.Kind != KindProviderWait {
			t.Errorf("gap [20,30] with in-gap WAIT: want %s, got %s", KindProviderWait, n.Kind)
		}
	}
}

// TestStragglerDetection plants one slow map among nineteen fast ones
// and expects exactly it to be flagged at k=3, then checks that a lone
// outlier among ten, which can never clear 3 sigma, is not.
func TestStragglerDetection(t *testing.T) {
	withStraggler := func(fast int) []trace.Span {
		spans := []trace.Span{
			span(trace.SpanJob, trace.CatJob, 0, 120, 3, -1, 0, -1, trace.OutcomeOK),
		}
		for i := 0; i < fast; i++ {
			spans = append(spans,
				span(trace.SpanMapAttempt, trace.CatMap, 0, 10, 3, i, 1, i%4, trace.OutcomeOK))
		}
		// The straggler takes 100s.
		return append(spans,
			span(trace.SpanMapAttempt, trace.CatMap, 0, 100, 3, fast, 1, 1, trace.OutcomeOK),
			span(trace.SpanReduceAttempt, trace.CatReduce, 100, 120, 3, 0, 1, 0, trace.OutcomeOK))
	}
	// Nineteen fast maps: mean 14.5, sd 19.6; 100 > 14.5+3*19.6.
	rep := Analyze(withStraggler(19), nil, nil, 0)
	if len(rep.Jobs) != 1 {
		t.Fatalf("want 1 job, got %d", len(rep.Jobs))
	}
	var stragglers []Anomaly
	for _, a := range rep.Jobs[0].Anomalies {
		if a.Kind == AnomalyStraggler {
			stragglers = append(stragglers, a)
		}
	}
	if len(stragglers) != 1 {
		t.Fatalf("want exactly 1 straggler, got %d: %+v", len(stragglers), stragglers)
	}
	s := stragglers[0]
	if s.Task != 19 || s.Value != 100 {
		t.Errorf("straggler should be task 19 (100s), got task %d value %g", s.Task, s.Value)
	}
	if s.Value <= s.Threshold {
		t.Errorf("straggler value %g must exceed its threshold %g", s.Value, s.Threshold)
	}

	// Nine fast maps: mean 19, sd 27; 100 < 19+3*27, so the trace is quiet.
	rep = Analyze(withStraggler(9), nil, nil, 0)
	for _, a := range rep.Jobs[0].Anomalies {
		if a.Kind == AnomalyStraggler {
			t.Errorf("no straggler expected among ten at k=3, got %+v", a)
		}
	}
}

// TestSpeculativeWaste sums killed-attempt time into one anomaly.
func TestSpeculativeWaste(t *testing.T) {
	spans := []trace.Span{
		span(trace.SpanJob, trace.CatJob, 0, 50, 1, -1, 0, -1, trace.OutcomeOK),
		span(trace.SpanMapAttempt, trace.CatMap, 0, 50, 1, 0, 1, 0, trace.OutcomeOK),
	}
	k1 := span(trace.SpanMapAttempt, trace.CatMap, 10, 17, 1, 0, 2, 3, trace.OutcomeKilled)
	k1.Speculative = true
	k2 := span(trace.SpanMapAttempt, trace.CatMap, 20, 23, 1, 1, 2, 2, trace.OutcomeKilled)
	k2.Speculative = true
	spans = append(spans, k1, k2)

	rep := Analyze(spans, nil, nil, 0)
	var waste []Anomaly
	for _, a := range rep.Jobs[0].Anomalies {
		if a.Kind == AnomalySpeculativeWaste {
			waste = append(waste, a)
		}
	}
	if len(waste) != 1 {
		t.Fatalf("want 1 speculative-waste anomaly, got %d", len(waste))
	}
	if got, want := waste[0].Value, 7.0+3.0; got != want {
		t.Errorf("wasted seconds: want %g, got %g", want, got)
	}
}

// TestScanStallAnomaly triggers the cluster-level stall-ratio rule.
func TestScanStallAnomaly(t *testing.T) {
	counters := map[string]int64{
		trace.CounterScanAsync.String():  100,
		trace.CounterScanStalls.String(): 80,
	}
	rep := Analyze(nil, nil, counters, 0)
	if len(rep.ClusterAnomalies) != 1 || rep.ClusterAnomalies[0].Kind != AnomalyScanStalls {
		t.Fatalf("want one scan-stalls anomaly, got %+v", rep.ClusterAnomalies)
	}
	// Below the ratio: quiet.
	counters[trace.CounterScanStalls.String()] = 10
	rep = Analyze(nil, nil, counters, 0)
	if len(rep.ClusterAnomalies) != 0 {
		t.Fatalf("want no anomalies at 10%% stalls, got %+v", rep.ClusterAnomalies)
	}
}

// TestFailedAttemptOnPath verifies a failed attempt that gated the
// task's retry participates in the critical path.
func TestFailedAttemptOnPath(t *testing.T) {
	spans := []trace.Span{
		span(trace.SpanJob, trace.CatJob, 0, 40, 2, -1, 0, -1, trace.OutcomeOK),
		// Attempt 1 fails at t=18; the retry queues until it starts at 20.
		span(trace.SpanQueueWait, trace.CatMap, 0, 4, 2, 0, 1, 0, ""),
		span(trace.SpanMapAttempt, trace.CatMap, 4, 18, 2, 0, 1, 0, trace.OutcomeFailed),
		span(trace.SpanQueueWait, trace.CatMap, 18, 20, 2, 0, 2, 1, ""),
		span(trace.SpanMapAttempt, trace.CatMap, 20, 40, 2, 0, 2, 1, trace.OutcomeOK),
	}
	rep := Analyze(spans, nil, nil, 0)
	if err := rep.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	j := rep.Jobs[0]
	sawFailed := false
	for _, n := range j.CriticalPath {
		if n.Attempt == 1 && n.Kind == KindUntraced && n.Start == 4 && n.End == 18 {
			sawFailed = true
		}
	}
	if !sawFailed {
		t.Errorf("failed attempt 1 missing from path: %+v", j.CriticalPath)
	}
}

// TestUntracedFiller covers attempts whose phase spans were evicted:
// the attempt window must be tiled with untraced filler, and the
// breakdown still sums to the makespan.
func TestUntracedFiller(t *testing.T) {
	spans := []trace.Span{
		span(trace.SpanJob, trace.CatJob, 0, 30, 4, -1, 0, -1, trace.OutcomeOK),
		span(trace.SpanMapAttempt, trace.CatMap, 0, 30, 4, 0, 1, 0, trace.OutcomeOK),
		// No phase spans recorded (simulating ring eviction).
	}
	rep := Analyze(spans, nil, nil, 0)
	if err := rep.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	j := rep.Jobs[0]
	if j.Breakdown.UntracedS != 30 {
		t.Errorf("want 30s untraced, got %g", j.Breakdown.UntracedS)
	}
}

// TestJobsWithoutJobSpanSkipped: attempts for a job whose SpanJob
// never closed (still running at trace end) must not produce a
// diagnosis.
func TestJobsWithoutJobSpanSkipped(t *testing.T) {
	spans := []trace.Span{
		span(trace.SpanMapAttempt, trace.CatMap, 0, 10, 9, 0, 1, 0, trace.OutcomeOK),
	}
	rep := Analyze(spans, nil, nil, 0)
	if len(rep.Jobs) != 0 {
		t.Fatalf("unfinished job must be skipped, got %+v", rep.Jobs)
	}
}

// TestWriteJSONShape locks the wire names CI greps for.
func TestWriteJSONShape(t *testing.T) {
	spans, decisions := goldenTrace()
	rep := Analyze(spans, decisions, map[string]int64{"jobs.finished": 1}, 0)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if doc["schema"] != SchemaVersion {
		t.Errorf("schema: want %q, got %v", SchemaVersion, doc["schema"])
	}
	jobs, ok := doc["jobs"].([]any)
	if !ok || len(jobs) != 1 {
		t.Fatalf("jobs array wrong: %v", doc["jobs"])
	}
	job := jobs[0].(map[string]any)
	for _, key := range []string{"job", "outcome", "submit_s", "finish_s", "makespan_s", "critical_path", "breakdown"} {
		if _, ok := job[key]; !ok {
			t.Errorf("job object missing %q", key)
		}
	}
}

// TestWriteTextRenders smoke-checks the human rendering.
func TestWriteTextRenders(t *testing.T) {
	spans, decisions := goldenTrace()
	rep := Analyze(spans, decisions, map[string]int64{"map.attempts": 2}, 0)
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"job 0 (ok)", "critical path", "provider-wait", "map.attempts"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteJobsCSV locks the CSV header and one data row.
func TestWriteJobsCSV(t *testing.T) {
	spans, decisions := goldenTrace()
	rep := Analyze(spans, decisions, nil, 0)
	var buf bytes.Buffer
	if err := rep.WriteJobsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("want header + 1 row, got %d records", len(recs))
	}
	if recs[0][0] != "job" || recs[0][4] != "makespan_s" {
		t.Errorf("header wrong: %v", recs[0])
	}
	if recs[1][0] != "0" || recs[1][4] != "100" {
		t.Errorf("row wrong: %v", recs[1])
	}
}

// TestBreakdownComponentsOrder pins the canonical component order the
// HTML report and CSV rely on.
func TestBreakdownComponentsOrder(t *testing.T) {
	var b Breakdown
	names := make([]string, 0)
	for _, c := range b.Components() {
		names = append(names, c.Name)
	}
	want := []string{
		KindSlotWait, KindProviderWait, KindStartup, "data-read-local",
		"data-read-remote", "map-compute", KindShuffle, "reduce", KindUntraced,
	}
	if len(names) != len(want) {
		t.Fatalf("want %d components, got %v", len(want), names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("component %d: want %s, got %s", i, want[i], names[i])
		}
	}
}

// TestInvariantViolationDetected corrupts a diagnosis and expects
// CheckInvariants to object.
func TestInvariantViolationDetected(t *testing.T) {
	spans, decisions := goldenTrace()
	rep := Analyze(spans, decisions, nil, 0)
	rep.Jobs[0].Breakdown.ShuffleS += 5 // break the sum
	if err := rep.CheckInvariants(); err == nil {
		t.Fatal("corrupted breakdown must fail CheckInvariants")
	}
	rep = Analyze(spans, decisions, nil, 0)
	rep.Jobs[0].CriticalPath[3].End += 1 // break the tiling
	if err := rep.CheckInvariants(); err == nil {
		t.Fatal("corrupted path tiling must fail CheckInvariants")
	}
}

// TestMeanStd sanity-checks the population standard deviation used by
// the straggler rule.
func TestMeanStd(t *testing.T) {
	spans := []trace.Span{
		span(trace.SpanMapAttempt, trace.CatMap, 0, 10, 0, 0, 1, 0, trace.OutcomeOK),
		span(trace.SpanMapAttempt, trace.CatMap, 0, 20, 0, 1, 1, 0, trace.OutcomeOK),
	}
	mean, sd := meanStd(spans)
	if mean != 15 || math.Abs(sd-5) > 1e-12 {
		t.Errorf("want mean 15 sd 5, got %g %g", mean, sd)
	}
}

// TestFromTracerReadsWrappedRing: FromTracer, which reads the span
// ring in place as two runs once it wraps, reports what Analyze does
// over the tracer's copied spans.
func TestFromTracerReadsWrappedRing(t *testing.T) {
	g := streamGen{rng: rand.New(rand.NewSource(3))}
	tr := trace.New(trace.Config{Enabled: true})
	for iter := 0; tr.Dropped() < 5000; iter++ {
		spans, decs := g.stream(1 + g.rng.Intn(6))
		for _, s := range spans {
			if s.Job >= 0 {
				s.Job += 10 * iter
			}
			tr.Record(s)
		}
		for _, d := range decs {
			d.JobID += 10 * iter
			tr.RecordPolicyDecision(d)
		}
	}
	if _, b, _ := tr.SpansSince(0); len(b) == 0 {
		t.Fatal("the ring read is a single run; want a wrapped ring")
	}
	want := Analyze(tr.Spans(), tr.PolicyDecisions(), tr.Counters(), tr.Dropped())
	if got := FromTracer(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("FromTracer differs from Analyze over the copied spans\ngot  %+v\nwant %+v", got, want)
	}
	if len(want.Jobs) < 100 {
		t.Fatalf("only %d jobs diagnosed", len(want.Jobs))
	}
}
