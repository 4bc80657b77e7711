package runarchive

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"dynamicmr/internal/qstats"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/tsdb"
)

// randomTracer populates an enabled tracer with r-sized randomized but
// diagnosis-valid content: nJobs simple one-map jobs (every phase
// boundary tiled so CheckInvariants holds), a decision log, metric
// samples and counters.
func randomTracer(r *rand.Rand, nJobs int) (*trace.Tracer, float64) {
	tr := trace.New(trace.Config{Enabled: true})
	now := 0.0
	for j := 0; j < nJobs; j++ {
		start := now + r.Float64()*5
		wait := 1 + r.Float64()*3
		run := 5 + r.Float64()*20
		end := start + wait + run
		tr.Record(trace.Span{Name: trace.SpanJob, Cat: trace.CatJob,
			Start: start, End: end, Job: j, Task: -1, Node: -1, Outcome: trace.OutcomeOK})
		tr.Record(trace.Span{Name: trace.SpanQueueWait, Cat: trace.CatMap,
			Start: start, End: start + wait, Job: j, Task: 0, Attempt: 1, Node: j % 4})
		tr.Record(trace.Span{Name: trace.SpanMapAttempt, Cat: trace.CatMap,
			Start: start + wait, End: end, Job: j, Task: 0, Attempt: 1, Node: j % 4,
			Outcome: trace.OutcomeOK})
		tr.Record(trace.Span{Name: trace.SpanMapCPU, Cat: trace.CatMap,
			Start: start + wait, End: end, Job: j, Task: 0, Attempt: 1, Node: j % 4})
		tr.RecordPolicyDecision(trace.PolicyDecision{
			Time: start, JobID: j, Policy: "LA", Verdict: trace.VerdictInit,
			Added: 1, GrabLimit: 1 + r.Intn(8),
			ScheduledMaps: 1, TotalSlots: 40, FreeSlots: r.Intn(40),
		})
		tr.RecordPolicyDecision(trace.PolicyDecision{
			Time: end, JobID: j, Policy: "LA", Verdict: trace.VerdictEOI,
		})
		now = end
	}
	for i := 0; i < r.Intn(20); i++ {
		tr.RecordMetricSample(trace.MetricSample{
			Time: float64(i+1) * 30, CPUUtilPct: r.Float64() * 100,
			DiskReadKBs: r.Float64() * 1e4, SlotOccupancyPct: r.Float64() * 100,
		})
	}
	for i := 0; i < r.Intn(6); i++ {
		tr.Inc(trace.Counter(i), r.Int63n(1e6))
	}
	return tr, now
}

// TestArchiveRoundTrip is the write→load→re-dump property over
// randomized archive contents: loaded fields equal the original, and
// the re-dump is byte-identical — the determinism the per-cell
// experiment archives rely on.
func TestArchiveRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr, vt := randomTracer(r, 1+r.Intn(7))
		src := Source{
			Label:        fmt.Sprintf("round-trip seed %d", seed),
			Tracer:       tr,
			VirtualTimeS: vt,
			Config: RunConfig{
				Policy: "LA", ScanWorkers: r.Intn(8),
				Seed: seed, GitRev: "abc123def456",
				Params: map[string]string{"figure": "6", "z": "2"},
			},
		}
		a, err := New(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		var first bytes.Buffer
		if err := a.Write(&first); err != nil {
			t.Fatalf("seed %d write: %v", seed, err)
		}
		loaded, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("seed %d load: %v", seed, err)
		}

		if !reflect.DeepEqual(loaded.Manifest, a.Manifest) {
			t.Fatalf("seed %d: manifest mismatch\n got %+v\nwant %+v", seed, loaded.Manifest, a.Manifest)
		}
		if !reflect.DeepEqual(loaded.Spans, a.Spans) {
			t.Fatalf("seed %d: %d spans do not round-trip", seed, len(a.Spans))
		}
		if !reflect.DeepEqual(loaded.Decisions, a.Decisions) {
			t.Fatalf("seed %d: decisions do not round-trip", seed)
		}
		if !reflect.DeepEqual(loaded.Samples, a.Samples) {
			t.Fatalf("seed %d: samples do not round-trip", seed)
		}
		if !reflect.DeepEqual(loaded.Counters, a.Counters) {
			t.Fatalf("seed %d: counters do not round-trip\n got %v\nwant %v", seed, loaded.Counters, a.Counters)
		}
		if !reflect.DeepEqual(loaded.Diagnosis, a.Diagnosis) {
			t.Fatalf("seed %d: diagnosis does not round-trip", seed)
		}

		var second bytes.Buffer
		if err := loaded.Write(&second); err != nil {
			t.Fatalf("seed %d re-dump: %v", seed, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("seed %d: re-dump is not byte-identical (%d vs %d bytes)",
				seed, first.Len(), second.Len())
		}
	}
}

// TestArchiveQueriesRoundTrip covers the qstats layer and the
// query-keyed RunSide alignment map.
func TestArchiveQueriesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tr, vt := randomTracer(r, 3)
	dump := &qstats.Dump{
		Schema: "dynamicmr.qstats/1", VirtualTimeS: vt,
		Started: 3, Finished: 2,
		Queries: []qstats.QueryRecord{
			{ID: "q-000001", JobID: 0, Policy: "LA", State: "ok"},
			{ID: "q-000002", JobID: 1, Policy: "LA", State: "ok"},
		},
		InFlight: []qstats.QueryRecord{{ID: "q-000003", JobID: 2, Policy: "LA"}},
	}
	a, err := New(Source{Label: "with queries", Tracer: tr, Queries: dump, VirtualTimeS: vt})
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest.Counts.Queries != 2 {
		t.Fatalf("manifest query count = %d, want 2", a.Manifest.Counts.Queries)
	}

	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Queries, a.Queries) {
		t.Fatalf("queries do not round-trip:\n got %+v\nwant %+v", loaded.Queries, a.Queries)
	}

	// RunSide aligns finished and in-flight jobs to query IDs.
	rs := loaded.RunSide()
	want := map[int]string{0: "q-000001", 1: "q-000002", 2: "q-000003"}
	if !reflect.DeepEqual(rs.QueryByJob, want) {
		t.Fatalf("QueryByJob = %v, want %v", rs.QueryByJob, want)
	}
}

// TestArchiveSeriesAndAlertsRoundTrip covers the tsdb layers: the
// series dump and alert log survive write→load with exact equality, a
// re-dump stays byte-identical, the manifest counts them, and RunSide
// exposes the alert signatures for diffing.
func TestArchiveSeriesAndAlertsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tr, vt := randomTracer(r, 2)
	series := &tsdb.Dump{
		Schema: tsdb.SchemaVersion, VirtualTimeS: vt, IntervalS: 5,
		Series: []tsdb.SeriesDump{
			{Name: "cluster.running_jobs", Points: []tsdb.Point{{T: 5, V: 1}, {T: 10, V: 2}}},
			{Name: "query.match_rate", Points: []tsdb.Point{{T: 10, V: 123.5}}},
		},
	}
	alerts := &tsdb.AlertsDump{
		Schema: tsdb.AlertsSchemaVersion, VirtualTimeS: vt,
		Rules: []tsdb.Rule{{Name: "latency-slo", Kind: tsdb.KindSLOBurn, ObjectiveS: 30}},
		Active: []tsdb.ActiveAlert{
			{Rule: "latency-slo", SinceS: 40, Value: 100, Severity: "page"},
		},
		Events: []tsdb.AlertEvent{
			{Rule: "latency-slo", State: tsdb.StateFiring, TimeS: 40, Value: 100},
		},
	}
	a, err := New(Source{Label: "with tsdb", Tracer: tr,
		Series: series, Alerts: alerts, VirtualTimeS: vt})
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest.Counts.Series != 2 || a.Manifest.Counts.AlertEvents != 1 {
		t.Fatalf("manifest counts: %+v", a.Manifest.Counts)
	}

	var first bytes.Buffer
	if err := a.Write(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Series, a.Series) {
		t.Fatalf("series do not round-trip:\n got %+v\nwant %+v", loaded.Series, a.Series)
	}
	if !reflect.DeepEqual(loaded.Alerts, a.Alerts) {
		t.Fatalf("alerts do not round-trip:\n got %+v\nwant %+v", loaded.Alerts, a.Alerts)
	}
	var second bytes.Buffer
	if err := loaded.Write(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-dump is not byte-identical (%d vs %d bytes)", first.Len(), second.Len())
	}

	if got := loaded.RunSide().Alerts; !reflect.DeepEqual(got, []string{"latency-slo(firing)"}) {
		t.Fatalf("RunSide alerts = %v", got)
	}

	// A wrong schema in either layer fails Validate.
	bad := *a
	badSeries := *series
	badSeries.Schema = "dynamicmr.tsdb/999"
	bad.Series = &badSeries
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a wrong tsdb schema")
	}
	bad = *a
	badAlerts := *alerts
	badAlerts.Schema = "dynamicmr.alerts/999"
	bad.Alerts = &badAlerts
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a wrong alerts schema")
	}
}

// TestArchiveValidateRejectsCorruption checks the load-time guards:
// wrong schema, truncated payload, and count drift all fail loudly.
func TestArchiveValidateRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr, vt := randomTracer(r, 2)
	a, err := New(Source{Label: "guard", Tracer: tr, VirtualTimeS: vt})
	if err != nil {
		t.Fatal(err)
	}

	// Schema mismatch.
	bad := *a
	bad.Manifest.Schema = "dynamicmr.archive/999"
	var buf bytes.Buffer
	// Write recomputes the schema, so corrupt the in-memory copy via
	// Validate directly.
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a wrong schema")
	}

	// Count drift.
	bad = *a
	bad.Manifest.Counts.Spans++
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a span-count drift")
	}

	// Truncated stream.
	buf.Reset()
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("Load accepted a truncated archive")
	}

	// Not an archive at all.
	if _, err := Load(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Fatal("Load accepted non-gzip input")
	}
}

// TestCompareRequiresDiagnosis pins the wrapper's error path.
func TestCompareRequiresDiagnosis(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tr, vt := randomTracer(r, 1)
	a, err := New(Source{Label: "a", Tracer: tr, VirtualTimeS: vt})
	if err != nil {
		t.Fatal(err)
	}
	b := *a
	b.Diagnosis = nil
	if _, err := Compare(a, &b); err == nil {
		t.Fatal("Compare accepted an archive with no diagnosis")
	}
	if rep, err := Compare(a, a); err != nil || len(rep.Jobs) == 0 {
		t.Fatalf("self-compare failed: %v (%+v)", err, rep)
	}
}

// BenchmarkArchiveWrite measures the serialization + compression cost
// of dumping a figure-6-cell-sized archive (~40k spans).
func BenchmarkArchiveWrite(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr, vt := randomTracer(r, 10000)
	a, err := New(Source{Label: "bench", Tracer: tr, VirtualTimeS: vt})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHandEncodersMatchReflection pins the hand-rolled span/decision/
// sample line encoders to the json.Marshal output of the wire structs
// they replaced, over randomized values including omitempty edges.
func TestHandEncodersMatchReflection(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	reflected := func(kind string, payload any) string {
		d, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(struct {
			T string          `json:"t"`
			D json.RawMessage `json:"d"`
		}{kind, d})
		if err != nil {
			t.Fatal(err)
		}
		return string(line) + "\n"
	}
	outcomes := []string{"", trace.OutcomeOK, trace.OutcomeFailed, `odd"outcome\`}
	for i := 0; i < 200; i++ {
		s := trace.Span{
			Name: trace.SpanMapAttempt, Cat: trace.CatMap,
			Start: r.Float64() * 1e4, End: r.Float64() * 1e4,
			Job: r.Intn(100), Task: r.Intn(10) - 1, Attempt: r.Intn(3),
			Node: r.Intn(40) - 1, Speculative: r.Intn(2) == 0,
			Outcome: outcomes[r.Intn(len(outcomes))],
		}
		if i%5 == 0 {
			s.Cat = ""
			s.Start = r.Float64() * 1e-7 // exponent-form float
		}
		if got, want := string(appendSpanLine(nil, s)), reflected(recSpan, toSpanRecord(s)); got != want {
			t.Fatalf("span line drift:\n got %s\nwant %s", got, want)
		}
		d := trace.PolicyDecision{
			Time: r.Float64() * 1e4, JobID: r.Intn(100), Policy: "LA",
			Verdict: trace.VerdictGrow, Added: r.Intn(5), GrabLimit: r.Intn(10),
			ScheduledMaps: r.Intn(50), CompletedMaps: r.Intn(50),
			PendingMaps: r.Intn(50), RunningMaps: r.Intn(50),
			MapInputRecords: r.Int63n(1e9), MapOutputRecords: r.Int63n(1e9),
			TotalSlots: 40, FreeSlots: r.Intn(40), QueuedTasks: r.Intn(20),
			WorkThresholdPct: r.Float64() * 100, ProgressPct: r.Float64() * 100,
		}
		if got, want := string(appendDecisionLine(nil, d)), reflected(recDecision, toDecisionRecord(d)); got != want {
			t.Fatalf("decision line drift:\n got %s\nwant %s", got, want)
		}
		m := trace.MetricSample{Time: r.Float64() * 1e4, CPUUtilPct: r.Float64() * 100,
			DiskReadKBs: r.Float64() * 1e4, SlotOccupancyPct: r.Float64() * 100}
		want := reflected(recSample, sampleRecord{Time: m.Time, CPUUtilPct: m.CPUUtilPct,
			DiskReadKBs: m.DiskReadKBs, SlotOccupancyPct: m.SlotOccupancyPct})
		if got := string(appendSampleLine(nil, m)); got != want {
			t.Fatalf("sample line drift:\n got %s\nwant %s", got, want)
		}
	}
}
