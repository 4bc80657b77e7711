package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestNilTracerIsSafeAndDisabled(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Record(Span{Name: SpanMapAttempt})
	tr.Instant(EventHeartbeat, CatNode, 1, -1, -1, 0)
	tr.Inc(CounterHeartbeats, 1)
	tr.Observe(HistMapDuration, 1)
	tr.RecordPolicyDecision(PolicyDecision{})
	tr.RecordMetricSample(MetricSample{Time: 1})
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer has spans: %v", got)
	}
	if tr.Counter(CounterHeartbeats) != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer accumulated state")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans(), tr.PolicyDecisions(), tr.MetricSamples(), tr.Dropped()); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer trace is not valid JSON: %v", err)
	}
}

func TestNewDisabledReturnsNil(t *testing.T) {
	if New(Config{}) != nil {
		t.Fatal("New with Enabled=false must return nil")
	}
	if New(Config{Enabled: true}) == nil {
		t.Fatal("New with Enabled=true returned nil")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.capacity() != DefaultCapacity {
		t.Fatalf("capacity() = %d", c.capacity())
	}
	c = Config{Capacity: 8}
	if c.capacity() != 8 {
		t.Fatalf("override ignored: %d", c.capacity())
	}
}

func TestRingKeepsNewestAndCountsDropped(t *testing.T) {
	tr := New(Config{Enabled: true, Capacity: 4})
	for i := 0; i < 10; i++ {
		tr.Record(Span{Name: SpanMapAttempt, Start: float64(i), End: float64(i) + 1, Task: i})
	}
	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("len(Spans()) = %d, want 4", len(got))
	}
	for i, s := range got {
		if s.Task != 6+i {
			t.Fatalf("Spans()[%d].Task = %d, want %d (oldest-first, newest kept)", i, s.Task, 6+i)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", tr.Dropped())
	}
}

// The ring doubles up to its capacity, so filling it allocates under
// twice its final size, and it keeps the newest spans once full.
func TestRingGrowsByDoublingToCapacity(t *testing.T) {
	tr := New(Config{Enabled: true, Capacity: 1000})
	var caps []int
	for i := 0; i < 1010; i++ {
		tr.Record(Span{Name: SpanMapAttempt, Task: i})
		if c := cap(tr.spans); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	if want := []int{64, 128, 256, 512, 1000}; !slices.Equal(caps, want) {
		t.Fatalf("ring capacities %v, want %v", caps, want)
	}
	got := tr.Spans()
	if len(got) != 1000 || got[0].Task != 10 || got[999].Task != 1009 || tr.Dropped() != 10 {
		t.Fatalf("full ring holds %d spans, tasks %d..%d, %d dropped", len(got), got[0].Task, got[len(got)-1].Task, tr.Dropped())
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	tr := New(Config{Enabled: true, Capacity: 8})
	for i := 0; i < 3; i++ {
		tr.Record(Span{Name: SpanQueueWait, Task: i})
	}
	got := tr.Spans()
	if len(got) != 3 || got[0].Task != 0 || got[2].Task != 2 {
		t.Fatalf("partial ring wrong: %+v", got)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped() = %d", tr.Dropped())
	}
}

// TestAppendSpansSinceIncrementalCursor drives the cursor API through
// every ring state: partial fill, exact fill, wrapped with losses, a
// read that straddles the wrap point, and a stale cursor older than the
// retained window. Every read after the first reuses one buffer.
func TestAppendSpansSinceIncrementalCursor(t *testing.T) {
	tr := New(Config{Enabled: true, Capacity: 4})
	tasks := func(spans []Span) []int {
		out := []int{}
		for _, s := range spans {
			out = append(out, s.Task)
		}
		return out
	}
	want := func(what string, got []Span, cur int64, wantTasks []int, wantCur int64) {
		t.Helper()
		if g := tasks(got); !reflect.DeepEqual(g, wantTasks) || cur != wantCur {
			t.Fatalf("%s: tasks %v cursor %d, want %v cursor %d", what, g, cur, wantTasks, wantCur)
		}
	}

	buf, cur := tr.AppendSpansSince(nil, 0)
	want("empty ring", buf, cur, []int{}, 0)

	// Partial fill: sequences 0..2.
	for i := 0; i < 3; i++ {
		tr.Record(Span{Name: SpanQueueWait, Task: i})
	}
	buf, cur = tr.AppendSpansSince(buf[:0], 0)
	want("partial fill", buf, cur, []int{0, 1, 2}, 3)
	buf, cur = tr.AppendSpansSince(buf[:0], cur)
	want("caught-up cursor", buf, cur, []int{}, 3)

	// The buffer is appended to, not overwritten.
	prefix := []Span{{Name: "mine", Task: -7}}
	got, _ := tr.AppendSpansSince(prefix, 1)
	want("append keeps dst", got, 3, []int{-7, 1, 2}, 3)

	// Fill past capacity: sequences 3..9, ring retains 6..9.
	for i := 3; i < 10; i++ {
		tr.Record(Span{Name: SpanQueueWait, Task: i})
	}
	buf, cur = tr.AppendSpansSince(buf[:0], cur)
	want("wrapped ring", buf, cur, []int{6, 7, 8, 9}, 10)
	if tr.SpanCount() != 10 {
		t.Fatalf("SpanCount = %d, want 10", tr.SpanCount())
	}

	// Mid-window cursor on a wrapped ring (retains 7..10; 7 sits in
	// the last slot, 8..10 in the first three).
	tr.Record(Span{Name: SpanQueueWait, Task: 10})
	reused := &buf[0]
	buf, cur = tr.AppendSpansSince(buf[:0], 9)
	want("mid-window read", buf, cur, []int{9, 10}, 11)

	// A stale cursor (0) clamps to the oldest retained sequence, and the
	// read straddles the wrap point.
	buf, cur = tr.AppendSpansSince(buf[:0], 0)
	want("stale cursor", buf, cur, []int{7, 8, 9, 10}, 11)
	if &buf[0] != reused {
		t.Fatal("a read that fits the buffer reallocated it")
	}

	// Nil tracer is safe and leaves dst alone.
	if got, cur := (*Tracer)(nil).AppendSpansSince(prefix, 5); len(got) != 1 || cur != 0 {
		t.Fatalf("nil tracer AppendSpansSince = %v, %d", got, cur)
	}
	if (*Tracer)(nil).SpanCount() != 0 {
		t.Fatal("nil tracer SpanCount != 0")
	}
}

func TestRegistryCountersAndHistograms(t *testing.T) {
	tr := New(Config{Enabled: true})
	tr.Inc(CounterMapAttempts, 2)
	tr.Inc(CounterMapAttempts, 3)
	if got := tr.Counter(CounterMapAttempts); got != 5 {
		t.Fatalf("counter = %d", got)
	}
	if got := tr.Counter("never-touched"); got != 0 {
		t.Fatalf("untouched counter = %d", got)
	}
	for _, v := range []float64{2, 8, 5} {
		tr.Observe(HistMapDuration, v)
	}
	h, ok := tr.Histogram(HistMapDuration)
	if !ok {
		t.Fatal("histogram missing")
	}
	if h.Count != 3 || h.Sum != 15 || h.Min != 2 || h.Max != 8 {
		t.Fatalf("histogram = %+v", h)
	}
	if _, ok := tr.Histogram("never-touched"); ok {
		t.Fatal("phantom histogram")
	}
}

func TestPolicyLogCountsEvaluations(t *testing.T) {
	tr := New(Config{Enabled: true})
	tr.RecordPolicyDecision(PolicyDecision{Time: 1, JobID: 0, Policy: "LA", Verdict: VerdictGrow, Added: 4})
	tr.RecordPolicyDecision(PolicyDecision{Time: 2, JobID: 0, Policy: "LA", Verdict: VerdictEOI})
	ds := tr.PolicyDecisions()
	if len(ds) != 2 || ds[0].Verdict != VerdictGrow || ds[1].Verdict != VerdictEOI {
		t.Fatalf("decisions = %+v", ds)
	}
	if got := tr.Counter(CounterPolicyEvals); got != 2 {
		t.Fatalf("policy.evaluations = %d", got)
	}
}

func TestMetricSampleTimeline(t *testing.T) {
	tr := New(Config{Enabled: true})
	tr.RecordMetricSample(MetricSample{Time: 30, CPUUtilPct: 50})
	tr.RecordMetricSample(MetricSample{Time: 60, CPUUtilPct: 25})
	got := tr.MetricSamples()
	if len(got) != 2 || got[0].Time != 30 || got[1].Time != 60 {
		t.Fatalf("timeline = %+v", got)
	}
	got[0].Time = -1 // a copy: mutating it must not reach the tracer
	if tr.MetricSamples()[0].Time != 30 {
		t.Fatal("MetricSamples returned the tracer's own slice")
	}
}

func TestWriteChromeTraceUnitsAndLanes(t *testing.T) {
	tr := New(Config{Enabled: true})
	tr.Record(Span{Name: SpanMapAttempt, Cat: CatMap, Start: 1.5, End: 3.5, Job: 0, Task: 7, Attempt: 1, Node: 2, Outcome: OutcomeOK})
	tr.Instant(EventHeartbeat, CatNode, 2, -1, -1, 3)
	tr.RecordPolicyDecision(PolicyDecision{Time: 4, JobID: 0, Policy: "LA", Verdict: VerdictGrow, Added: 2})
	tr.RecordMetricSample(MetricSample{Time: 30, CPUUtilPct: 42})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans(), tr.PolicyDecisions(), tr.MetricSamples(), tr.Dropped()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid Chrome trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	byName := map[string]int{}
	for _, e := range doc.TraceEvents {
		byName[e.Name]++
		switch e.Name {
		case SpanMapAttempt:
			if e.Ph != "X" || e.Ts != 1.5e6 || e.Dur != 2e6 {
				t.Fatalf("map-attempt event wrong: %+v", e)
			}
			if e.Pid != 1 || e.Tid != 7 {
				t.Fatalf("map-attempt lane = pid %d tid %d", e.Pid, e.Tid)
			}
			if e.Args["outcome"] != OutcomeOK {
				t.Fatalf("map-attempt args = %v", e.Args)
			}
		case EventHeartbeat:
			if e.Ph != "i" || e.Pid != 0 || e.Tid != 3 {
				t.Fatalf("heartbeat event wrong: %+v", e)
			}
		case VerdictGrow:
			if e.Ph != "i" || e.Cat != CatPolicy || e.Ts != 4e6 {
				t.Fatalf("policy event wrong: %+v", e)
			}
		case "cpu util %":
			if e.Ph != "C" || e.Ts != 30e6 || e.Args["value"] != 42.0 {
				t.Fatalf("counter event wrong: %+v", e)
			}
		}
	}
	for _, want := range []string{SpanMapAttempt, EventHeartbeat, VerdictGrow, "cpu util %", "disk read KB/s", "slot occupancy %", "process_name"} {
		if byName[want] == 0 {
			t.Fatalf("missing %q events in export; got %v", want, byName)
		}
	}
}

func TestCSVExports(t *testing.T) {
	tr := New(Config{Enabled: true})
	tr.RecordMetricSample(MetricSample{Time: 30, CPUUtilPct: 10, DiskReadKBs: 20, SlotOccupancyPct: 30})

	var buf bytes.Buffer
	if err := WriteMetricCSV(&buf, tr.MetricSamples()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "time_s,") || lines[1] != "30,10,20,30" {
		t.Fatalf("timeline CSV = %q", buf.String())
	}
}
