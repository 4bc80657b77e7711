package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"dynamicmr"
	"dynamicmr/internal/trace"
)

// TestChromeTraceCrossChecksRuntime runs a dynamic sampling query with
// tracing enabled, exports the Chrome trace, parses it back, and
// cross-checks the span counts against the JobTracker's own counters
// and the JobClient's decision log: every map/reduce attempt and every
// policy decision must appear exactly once.
func TestChromeTraceCrossChecksRuntime(t *testing.T) {
	c, err := dynamicmr.NewCluster(dynamicmr.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.LoadLineItem("lineitem", dynamicmr.DatasetSpec{
		Scale: 1, Skew: 1, Rows: 400_000, Partitions: 120, Selectivity: 0.005, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(fmt.Sprintf(
		"SELECT L_ORDERKEY FROM lineitem WHERE %s LIMIT 200", ds.Predicate()))
	if err != nil {
		t.Fatal(err)
	}
	tr := c.Tracer()
	if !tr.Enabled() {
		t.Fatal("tracer disabled despite WithTracing")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring evicted %d spans; raise capacity for this workload", tr.Dropped())
	}

	// Invariant: one enclosing map-attempt span per attempt outcome the
	// runtime counted.
	ctr := res.Job.Counters
	attempts := int(ctr.CompletedMaps + ctr.FailedMapAttempts + ctr.KilledAttempts)
	if attempts == 0 {
		t.Fatal("job ran no map attempts")
	}
	spans := map[string]int{}
	late := 0
	for _, s := range tr.Spans() {
		spans[s.Name]++
		if s.Outcome == trace.OutcomeLate {
			late++
		}
	}
	if got := spans[trace.SpanMapAttempt]; got != attempts {
		t.Fatalf("map-attempt spans = %d, counters say %d attempts", got, attempts)
	}
	if late != 0 {
		t.Fatalf("unexpected late attempts: %d", late)
	}
	if got := tr.Counter(trace.CounterMapAttempts); got != int64(attempts) {
		t.Fatalf("map.attempts counter = %d, want %d", got, attempts)
	}
	if reduces := spans[trace.SpanReduceAttempt]; reduces < 1 || reduces != spans[trace.SpanOutputWrite] {
		t.Fatalf("reduce-attempt spans = %d, output-write = %d", reduces, spans[trace.SpanOutputWrite])
	}
	// Non-speculative launches each record a queue wait.
	if got, want := spans[trace.SpanQueueWait],
		attempts-int(tr.Counter(trace.CounterMapSpeculative)); got != want {
		t.Fatalf("queue-wait spans = %d, want %d", got, want)
	}

	// The audit log carries the JobClient's decisions plus the INIT grab
	// and any threshold skips.
	decisions := tr.PolicyDecisions()
	inits, skips, consulted := 0, 0, 0
	for _, d := range decisions {
		switch d.Verdict {
		case trace.VerdictInit:
			inits++
		case trace.VerdictSkip:
			skips++
		default:
			consulted++
		}
	}
	if inits != 1 {
		t.Fatalf("INIT decisions = %d, want 1", inits)
	}
	if res.Client == nil {
		t.Fatal("query was not dynamic")
	}
	if got := len(res.Client.Decisions()); got != consulted {
		t.Fatalf("audit log has %d consultations, client logged %d", consulted, got)
	}
	if consulted == 0 {
		t.Fatal("expected at least one provider consultation; shrink the initial grab")
	}

	// Export and parse back: the JSON must round-trip the same counts.
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, tr.Spans(), tr.PolicyDecisions(), tr.MetricSamples(), tr.Dropped()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		OtherData struct {
			DroppedSpans int64 `json:"dropped_spans"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if doc.OtherData.DroppedSpans != 0 {
		t.Fatalf("export reports %d dropped spans", doc.OtherData.DroppedSpans)
	}
	horizon := c.Now() * 1e6
	jsonMapAttempts, jsonVerdicts := 0, 0
	verdicts := map[string]bool{trace.VerdictInit: true, trace.VerdictGrow: true,
		trace.VerdictWait: true, trace.VerdictEOI: true, trace.VerdictSkip: true}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		if e.Ts < 0 || e.Ts > horizon+1 || e.Dur < 0 {
			t.Fatalf("event outside the virtual timeline: %+v (horizon %v)", e, horizon)
		}
		if e.Name == trace.SpanMapAttempt {
			if e.Ph != "X" {
				t.Fatalf("map-attempt exported as %q", e.Ph)
			}
			jsonMapAttempts++
		}
		if e.Cat == trace.CatPolicy && verdicts[e.Name] {
			jsonVerdicts++
		}
	}
	if jsonMapAttempts != attempts {
		t.Fatalf("JSON has %d map-attempt events, want %d", jsonMapAttempts, attempts)
	}
	if jsonVerdicts != len(decisions) {
		t.Fatalf("JSON has %d policy events, audit log has %d", jsonVerdicts, len(decisions))
	}
}
