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

// newRing returns an enabled tracer whose span ring holds capacity
// spans, so the ring tests can fill and wrap it cheaply.
func newRing(capacity int) *Tracer {
	tr := New(Config{Enabled: true})
	tr.capacity = capacity
	return tr
}

func TestConfigDefaults(t *testing.T) {
	if c := New(Config{Enabled: true}).capacity; c != RingCapacity {
		t.Fatalf("ring capacity %d, want %d", c, RingCapacity)
	}
}

func TestRingKeepsNewestAndCountsDropped(t *testing.T) {
	tr := newRing(4)
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
	tr := newRing(1000)
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
	tr := newRing(8)
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

// TestSpansSinceIncrementalCursor drives the cursor API through every
// ring state: partial fill, exact fill, wrapped with losses, a read
// that straddles the wrap point, and a stale cursor older than the
// retained window. Every read returns views of the ring, not copies.
func TestSpansSinceIncrementalCursor(t *testing.T) {
	tr := newRing(4)
	want := func(what string, from int64, wantTasks []int, wantCur int64) {
		t.Helper()
		a, b, cur := tr.SpansSince(from)
		got := []int{}
		for _, s := range append(append([]Span(nil), a...), b...) {
			got = append(got, s.Task)
		}
		if !reflect.DeepEqual(got, wantTasks) || cur != wantCur {
			t.Fatalf("%s: tasks %v cursor %d, want %v cursor %d", what, got, cur, wantTasks, wantCur)
		}
		for _, run := range [][]Span{a, b} {
			aliased := len(run) == 0
			for i := range tr.spans {
				aliased = aliased || &run[0] == &tr.spans[i]
			}
			if !aliased {
				t.Fatalf("%s: a run does not alias the ring", what)
			}
		}
	}

	want("empty ring", 0, []int{}, 0)

	// Partial fill: sequences 0..2.
	for i := 0; i < 3; i++ {
		tr.Record(Span{Name: SpanQueueWait, Task: i})
	}
	want("partial fill", 0, []int{0, 1, 2}, 3)
	want("caught-up cursor", 3, []int{}, 3)
	want("mid cursor", 1, []int{1, 2}, 3)

	// Fill past capacity: sequences 3..9, ring retains 6..9.
	for i := 3; i < 10; i++ {
		tr.Record(Span{Name: SpanQueueWait, Task: i})
	}
	want("wrapped ring", 3, []int{6, 7, 8, 9}, 10)
	if tr.SpanCount() != 10 {
		t.Fatalf("SpanCount = %d, want 10", tr.SpanCount())
	}

	// Mid-window cursor on a wrapped ring (retains 7..10; 7 sits in
	// the last slot, 8..10 in the first three).
	tr.Record(Span{Name: SpanQueueWait, Task: 10})
	want("mid-window read", 9, []int{9, 10}, 11)

	// A stale cursor (0) clamps to the oldest retained sequence, and the
	// read straddles the wrap point: two runs.
	want("stale cursor", 0, []int{7, 8, 9, 10}, 11)
	if a, b, _ := tr.SpansSince(0); len(a) != 1 || len(b) != 3 {
		t.Fatalf("straddling read split %d+%d, want 1+3", len(a), len(b))
	}
	// The runs are capacity-capped: appending to one cannot overwrite
	// the ring.
	if a, _, _ := tr.SpansSince(9); cap(a) != len(a) {
		t.Fatalf("run capacity %d past its length %d", cap(a), len(a))
	}

	// Nil tracer is safe.
	if a, b, cur := (*Tracer)(nil).SpansSince(5); a != nil || b != nil || cur != 0 {
		t.Fatalf("nil tracer SpansSince = %v, %v, %d", a, b, cur)
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
	if got := tr.Counter(CounterMapFailed); got != 0 {
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
	if _, ok := tr.Histogram(HistReduceDuration); ok {
		t.Fatal("phantom histogram")
	}
}

// TestCountersListTouchedNames: Counters lists exactly the counters
// ever incremented, a zero delta included, under their names, as the
// name-keyed registry it replaced did; archives, /metrics and tsdb
// series take their key sets from it.
func TestCountersListTouchedNames(t *testing.T) {
	tr := New(Config{Enabled: true})
	if got := tr.Counters(); len(got) != 0 {
		t.Fatalf("fresh tracer lists counters %v", got)
	}
	tr.Inc(CounterScanBlocksRead, 3)
	tr.Inc(CounterScanBlocksSkipped, 0)
	tr.RecordPolicyDecision(PolicyDecision{Verdict: VerdictGrow})
	want := map[string]int64{"scan.blocks_read": 3, "scan.blocks_skipped": 0, "policy.evaluations": 1}
	if got := tr.Counters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counters() = %v, want %v", got, want)
	}
	var names []string
	for _, f := range tr.PromFamilies("") {
		names = append(names, f.Name)
	}
	slices.Sort(names)
	if want := []string{"policy.evaluations_total", "scan.blocks_read_total", "scan.blocks_skipped_total"}; !slices.Equal(names, want) {
		t.Fatalf("PromFamilies() = %v, want %v", names, want)
	}
	for c := Counter(0); c < NumCounters; c++ {
		if c.String() == "" {
			t.Fatalf("counter %d has no name", c)
		}
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
