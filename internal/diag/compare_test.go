package diag

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dynamicmr/internal/trace"
)

// variantTrace shifts the golden trace's GROW from t=30 to t=40 (one
// extra WAIT round), sliding wave two and the reduce 10 s later: the
// makespan grows 100 -> 110 and the entire +10 s lands in
// provider-wait, every other component unchanged.
func variantTrace() ([]trace.Span, []trace.PolicyDecision) {
	spans := []trace.Span{
		span(trace.SpanJob, trace.CatJob, 0, 110, 0, -1, 0, -1, trace.OutcomeOK),
		// Wave one is identical to the golden trace.
		span(trace.SpanQueueWait, trace.CatMap, 0, 2, 0, 0, 1, 2, ""),
		span(trace.SpanMapAttempt, trace.CatMap, 2, 20, 0, 0, 1, 2, trace.OutcomeOK),
		span(trace.SpanStartup, trace.CatMap, 2, 3, 0, 0, 1, 2, ""),
		span(trace.SpanDiskRead, trace.CatMap, 3, 10, 0, 0, 1, 2, ""),
		span(trace.SpanMapCPU, trace.CatMap, 10, 20, 0, 0, 1, 2, ""),
		// Wave two starts at the delayed GROW (t=40 instead of 30).
		span(trace.SpanQueueWait, trace.CatMap, 40, 42, 0, 1, 1, 5, ""),
		span(trace.SpanMapAttempt, trace.CatMap, 42, 60, 0, 1, 1, 5, trace.OutcomeOK),
		span(trace.SpanStartup, trace.CatMap, 42, 43, 0, 1, 1, 5, ""),
		span(trace.SpanDiskRead, trace.CatMap, 43, 50, 0, 1, 1, 5, ""),
		span(trace.SpanNetRead, trace.CatMap, 50, 54, 0, 1, 1, 5, ""),
		span(trace.SpanMapCPU, trace.CatMap, 54, 60, 0, 1, 1, 5, ""),
		// Reduce slides with it.
		span(trace.SpanReduceAttempt, trace.CatReduce, 65, 110, 0, 0, 1, 7, trace.OutcomeOK),
		span(trace.SpanStartup, trace.CatReduce, 65, 66, 0, 0, 1, 7, ""),
		span(trace.SpanShuffle, trace.CatReduce, 66, 80, 0, 0, 1, 7, ""),
		span(trace.SpanSort, trace.CatReduce, 80, 90, 0, 0, 1, 7, ""),
		span(trace.SpanReduceCPU, trace.CatReduce, 90, 105, 0, 0, 1, 7, ""),
		span(trace.SpanOutputWrite, trace.CatReduce, 105, 110, 0, 0, 1, 7, ""),
	}
	decisions := []trace.PolicyDecision{
		{Time: 0, JobID: 0, Policy: "LA", Verdict: trace.VerdictInit, Added: 1},
		{Time: 25, JobID: 0, Policy: "LA", Verdict: trace.VerdictWait},
		{Time: 32, JobID: 0, Policy: "LA", Verdict: trace.VerdictWait},
		{Time: 40, JobID: 0, Policy: "LA", Verdict: trace.VerdictGrow, Added: 1},
		{Time: 60, JobID: 0, Policy: "LA", Verdict: trace.VerdictEOI},
	}
	return spans, decisions
}

// side builds a RunSide from a canned trace, aligning job 0 to a query
// ID so the test also covers query-keyed alignment.
func side(t *testing.T, label string, spans []trace.Span, decisions []trace.PolicyDecision) RunSide {
	t.Helper()
	rep := Analyze(spans, decisions, nil, 0)
	if err := rep.CheckInvariants(); err != nil {
		t.Fatalf("%s invariants: %v", label, err)
	}
	return RunSide{Label: label, Report: rep, Decisions: decisions,
		QueryByJob: map[int]string{0: "q-000001"}}
}

// TestGoldenCompare pins the full cross-run diff of the canned pair:
// exact per-component deltas, the delta-sum invariant, and the first
// divergent decision's index and reason.
func TestGoldenCompare(t *testing.T) {
	aSpans, aDecisions := goldenTrace()
	bSpans, bDecisions := variantTrace()
	a := side(t, "baseline", aSpans, aDecisions)
	b := side(t, "delayed-grow", bSpans, bDecisions)

	rep, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckInvariants(); err != nil {
		t.Fatalf("diff invariants: %v", err)
	}
	if rep.Schema != DiffSchemaVersion || rep.ALabel != "baseline" || rep.BLabel != "delayed-grow" {
		t.Fatalf("header wrong: %+v", rep)
	}
	if len(rep.Jobs) != 1 || len(rep.OnlyA) != 0 || len(rep.OnlyB) != 0 {
		t.Fatalf("want 1 aligned job, got %d (+%d/-%d unmatched)", len(rep.Jobs), len(rep.OnlyA), len(rep.OnlyB))
	}
	j := rep.Jobs[0]
	if j.Key != "q-000001" {
		t.Errorf("alignment key = %q, want query ID", j.Key)
	}
	if j.AMakespanS != 100 || j.BMakespanS != 110 || j.MakespanDeltaS != 10 {
		t.Fatalf("makespans wrong: %+v", j)
	}

	wantDelta := map[string]float64{
		"slot-wait": 0, "provider-wait": 10, "startup": 0,
		"data-read-local": 0, "data-read-remote": 0, "map-compute": 0,
		"shuffle": 0, "reduce": 0, "untraced": 0,
	}
	if len(j.Components) != len(wantDelta) {
		t.Fatalf("want %d components, got %d", len(wantDelta), len(j.Components))
	}
	sum := 0.0
	for _, c := range j.Components {
		want, ok := wantDelta[c.Name]
		if !ok {
			t.Errorf("unexpected component %q", c.Name)
			continue
		}
		if c.DeltaS != want {
			t.Errorf("component %s: delta %g, want %g", c.Name, c.DeltaS, want)
		}
		sum += c.DeltaS
	}
	if math.Abs(sum-j.MakespanDeltaS) > 1e-9 {
		t.Errorf("component deltas sum to %g, makespan delta %g", sum, j.MakespanDeltaS)
	}

	// One extra WAIT round: position 2 flips GROW -> WAIT.
	div := j.FirstDivergence
	if div == nil {
		t.Fatal("want a divergence, decisions are not twins")
	}
	if div.Index != 2 || div.Reason != "verdict" {
		t.Fatalf("divergence = %+v, want index 2 reason verdict", div)
	}
	if div.A.Verdict != trace.VerdictGrow || div.B.Verdict != trace.VerdictWait {
		t.Fatalf("divergence decisions wrong: A=%+v B=%+v", div.A, div.B)
	}

	// The delay stretches a gap but visits the same node kinds.
	if j.Path.ANodes != 16 || j.Path.BNodes != 16 || j.Path.FirstKindDifference != -1 {
		t.Fatalf("path diff wrong: %+v", j.Path)
	}
	if len(j.AnomaliesOnlyA) != 0 || len(j.AnomaliesOnlyB) != 0 {
		t.Fatalf("anomaly sets should match: %v / %v", j.AnomaliesOnlyA, j.AnomaliesOnlyB)
	}
	if rep.TotalMakespanDeltaS != 10 {
		t.Errorf("total makespan delta = %g, want 10", rep.TotalMakespanDeltaS)
	}
}

// TestCompareTwinRuns diffs the golden trace against itself: all
// deltas zero, no divergence, identical paths.
func TestCompareTwinRuns(t *testing.T) {
	aSpans, aDecisions := goldenTrace()
	bSpans, bDecisions := goldenTrace()
	rep, err := Compare(side(t, "a", aSpans, aDecisions), side(t, "b", bSpans, bDecisions))
	if err != nil {
		t.Fatal(err)
	}
	j := rep.Jobs[0]
	if j.MakespanDeltaS != 0 || j.FirstDivergence != nil || j.Path.FirstKindDifference != -1 {
		t.Fatalf("twin diff not clean: %+v", j)
	}
	for _, c := range j.Components {
		if c.DeltaS != 0 {
			t.Errorf("twin component %s delta %g", c.Name, c.DeltaS)
		}
	}
	if len(rep.CounterDeltas) != 0 {
		t.Errorf("twin counter deltas: %+v", rep.CounterDeltas)
	}
}

// TestCompareUnmatchedAndCounters covers one-sided jobs and counter
// attribution.
func TestCompareUnmatchedAndCounters(t *testing.T) {
	aSpans, aDecisions := goldenTrace()
	bSpans, bDecisions := goldenTrace()
	a := side(t, "a", aSpans, aDecisions)
	b := side(t, "b", bSpans, bDecisions)
	// Different query IDs -> nothing aligns.
	b.QueryByJob = map[int]string{0: "q-000002"}
	a.Report.Counters = map[string]int64{"map.attempts": 2, "heartbeats": 50}
	b.Report.Counters = map[string]int64{"map.attempts": 3, "heartbeats": 50}

	rep, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 0 {
		t.Fatalf("want no aligned jobs, got %d", len(rep.Jobs))
	}
	if len(rep.OnlyA) != 1 || rep.OnlyA[0] != "q-000001" ||
		len(rep.OnlyB) != 1 || rep.OnlyB[0] != "q-000002" {
		t.Fatalf("unmatched keys wrong: %v / %v", rep.OnlyA, rep.OnlyB)
	}
	if len(rep.CounterDeltas) != 1 || rep.CounterDeltas[0].Name != "map.attempts" ||
		rep.CounterDeltas[0].Delta != 1 {
		t.Fatalf("counter deltas wrong: %+v", rep.CounterDeltas)
	}
}

// TestDiffRenderers smoke-checks the JSON and text output over the
// golden pair.
func TestDiffRenderers(t *testing.T) {
	aSpans, aDecisions := goldenTrace()
	bSpans, bDecisions := variantTrace()
	rep, err := Compare(side(t, "baseline", aSpans, aDecisions), side(t, "delayed-grow", bSpans, bDecisions))
	if err != nil {
		t.Fatal(err)
	}

	var jsonBuf bytes.Buffer
	if err := rep.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded DiffReport
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("diff JSON does not round-trip: %v", err)
	}
	if decoded.Schema != DiffSchemaVersion || len(decoded.Jobs) != 1 {
		t.Fatalf("decoded diff wrong: %+v", decoded)
	}

	var textBuf bytes.Buffer
	if err := rep.WriteText(&textBuf); err != nil {
		t.Fatal(err)
	}
	text := textBuf.String()
	for _, want := range []string{"baseline", "delayed-grow", "provider-wait", "+10.000"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
}
