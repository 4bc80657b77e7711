package dynamicmr

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"dynamicmr/internal/obs"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/tsdb"
)

// renderRun runs the canned sampling query the given number of times
// on a cluster built with opts, and returns the cluster, the archive
// cut from it, and that archive after a bytes round-trip (Write →
// Load) — the form `dynmr render` reads from disk.
func renderRun(t *testing.T, queries int, opts ...Option) (c *Cluster, cut, loaded *runarchive.Archive) {
	t.Helper()
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: 42,
	}); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < queries; q++ {
		if _, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200"); err != nil {
			t.Fatal(err)
		}
	}
	cut, err = c.BuildArchive("render run", runarchive.RunConfig{Policy: "LA", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cut.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded, err = runarchive.Load(&buf); err != nil {
		t.Fatalf("archive does not round-trip: %v", err)
	}
	return c, cut, loaded
}

func rendered(t *testing.T, a *runarchive.Archive, kind string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Render(&buf, kind); err != nil {
		t.Fatalf("render %s: %v", kind, err)
	}
	return buf.Bytes()
}

func written(t *testing.T, write func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func chromeExport(tr *trace.Tracer) func(io.Writer) error {
	return func(w io.Writer) error {
		return trace.WriteChromeTrace(w, tr.Spans(), tr.PolicyDecisions(), tr.MetricSamples(), tr.Dropped())
	}
}

// TestRenderMatchesLiveWriters: for one snapshot, every `dynmr render`
// view of the archive is byte-identical to the live writer — the
// qstats dump as Registry.WriteJSON encodes it, the alert dump as the
// engine writes it after a flush (Flush, AlertsDump, WriteJSON), the
// diagnosis as text, JSON and CSV, the tracer's Chrome export and its
// utilization timeline CSV.
func TestRenderMatchesLiveWriters(t *testing.T) {
	c, cut, a := renderRun(t, 3, WithTracing(), WithTimeSeries(tsdb.Rule{
		Name: "latency-slo", Kind: tsdb.KindSLOBurn, ObjectiveS: 0.001, Severity: "page",
	}))
	if a.Queries == nil || len(a.Queries.Queries) != 3 || a.Alerts == nil || len(a.Alerts.Events) == 0 {
		t.Fatal("fixture archive lacks the qstats or alert sections")
	}

	// The qstats dump carries a wall clock, so a second Dump would
	// differ: compare against the Registry.WriteJSON encoding of the
	// Dump value the archive was cut from.
	if got, want := rendered(t, a, "qstats"), written(t, cut.Queries.WriteJSON); !bytes.Equal(got, want) {
		t.Errorf("render qstats differs from Registry.WriteJSON:\n%s\nwant:\n%s", got, want)
	}
	c.TSDB().Flush()
	if got, want := rendered(t, a, "alerts"), written(t, c.TSDB().AlertsDump().WriteJSON); !bytes.Equal(got, want) {
		t.Errorf("render alerts differs from AlertsDump.WriteJSON:\n%s\nwant:\n%s", got, want)
	}
	rep, err := c.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	for kind, write := range map[string]func(io.Writer) error{
		"diag":      rep.WriteText,
		"diag-json": rep.WriteJSON,
		"diag-csv":  rep.WriteJobsCSV,
		"chrome":    chromeExport(c.Tracer()),
		"timeline": func(w io.Writer) error {
			return trace.WriteMetricCSV(w, c.Tracer().MetricSamples())
		},
	} {
		if got, want := rendered(t, a, kind), written(t, write); !bytes.Equal(got, want) {
			t.Errorf("render %s differs from the live writer:\n%s\nwant:\n%s", kind, got, want)
		}
	}
	if err := a.Render(io.Discard, "perfetto"); err == nil {
		t.Error("unknown render kind accepted")
	}
}

// TestChromeTraceDeterministic: the Chrome export is a pure function
// of the trace — repeated exports of one eight-job tracer are
// byte-identical (each job's process_name metadata must not follow map
// iteration order), and they match the export rendered from the
// tracer's archive.
func TestChromeTraceDeterministic(t *testing.T) {
	c, _, a := renderRun(t, 8, WithTracing())
	first := written(t, chromeExport(c.Tracer()))
	for i := 0; i < 10; i++ {
		if again := written(t, chromeExport(c.Tracer())); !bytes.Equal(again, first) {
			t.Fatalf("export %d differs from the first", i+2)
		}
	}
	if got := rendered(t, a, "chrome"); !bytes.Equal(got, first) {
		t.Fatal("render chrome differs from the tracer's export")
	}
}

// TestRenderMissingSections: an archive cut without the qstats and
// tsdb layers renders their schema-valid empty dumps — for alerts,
// exactly what a tsdb engine without rules dumps at the same instant —
// and an archive without samples renders a header-only timeline.
func TestRenderMissingSections(t *testing.T) {
	_, _, bare := renderRun(t, 1, WithTracing())
	if bare.Queries != nil || bare.Alerts != nil {
		t.Fatal("tracing-only archive carries qstats or alerts")
	}
	ruleless, _, _ := renderRun(t, 1, WithTracing(), WithTimeSeries())
	if got, want := rendered(t, bare, "alerts"), written(t, ruleless.TSDB().AlertsDump().WriteJSON); !bytes.Equal(got, want) {
		t.Errorf("empty alerts render:\n%s\nwant:\n%s", got, want)
	}
	var q bytes.Buffer
	if err := bare.Render(&q, "qstats"); err != nil || !bytes.Contains(q.Bytes(), []byte(`"schema": "dynamicmr.qstats/1"`)) {
		t.Errorf("empty qstats render: %v\n%s", err, q.String())
	}
	if got := string(rendered(t, &runarchive.Archive{}, "timeline")); got != "time_s,cpu_util_pct,disk_read_kbs,slot_occupancy_pct\n" {
		t.Errorf("sample-less timeline render: %q", got)
	}
}

// TestRenderReport: the HTML report renders from the archive alone.
// The cut takes the sampler's last partial interval, so the series
// ends at the archive's clock; rendering after a Write → Load round
// trip gives the bytes the cut archive renders; and an archive without
// a sampler renders without the utilization charts.
func TestRenderReport(t *testing.T) {
	_, cut, a := renderRun(t, 3, WithUtilizationSampling(5), WithTimeSeries(tsdb.Rule{
		Name: "latency-slo", Kind: tsdb.KindSLOBurn, ObjectiveS: 0.001, Severity: "page",
	}))
	if n := len(a.Snapshots); n == 0 || a.Snapshots[n-1].Time != a.Manifest.VirtualTimeS {
		t.Fatalf("snapshot series does not end at the cut (%v): %d snapshots", a.Manifest.VirtualTimeS, n)
	}
	html := rendered(t, cut, "report")
	if !bytes.Equal(rendered(t, a, "report"), html) {
		t.Fatal("report rendered after a Write → Load round trip differs from the cut archive's")
	}
	for _, want := range []string{"<title>render run</title>", "<dt>policy</dt><dd>LA</dd>",
		"Cluster utilization", "<h2>Trends</h2>", "Per-node utilization", "Slot occupancy", "Input Provider state",
		"Per-query stats", "<h2>Alerts</h2>", "latency-slo", "Counters"} {
		if !bytes.Contains(html, []byte(want)) {
			t.Errorf("report missing %q", want)
		}
	}

	_, _, bare := renderRun(t, 1, WithTracing())
	plain := rendered(t, bare, "report")
	if bytes.Contains(plain, []byte("Cluster utilization")) || !bytes.Contains(plain, []byte("Slot occupancy")) {
		t.Error("a sampler-less archive must render the Gantt without the utilization charts")
	}
}

// TestLiveMatchesReportSections: at one instant, the /live page of a
// server over the cluster's sampler, query registry and time-series
// engine, and the report rendered from the archive cut at that
// instant, carry the same utilization, trend, per-query and alert
// sections: one renderer draws both.
func TestLiveMatchesReportSections(t *testing.T) {
	c, cut, _ := renderRun(t, 3, WithUtilizationSampling(5), WithTimeSeries(tsdb.Rule{
		Name: "latency-slo", Kind: tsdb.KindSLOBurn, ObjectiveS: 0.001, Severity: "page",
	}))
	rec := httptest.NewRecorder()
	obs.NewServer(c.Sampler(), c.QueryStats(), c.TSDB()).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/live", nil))
	live, report := rec.Body.String(), string(rendered(t, cut, "report"))
	for _, heading := range []string{"<h2>Cluster utilization</h2>", "<h2>Trends</h2>", "<h2>Per-query stats</h2>", "<h2>Alerts</h2>"} {
		if !strings.Contains(live, heading) || !strings.Contains(report, heading) {
			t.Errorf("%s: on /live %v, in the report %v; want both", heading,
				strings.Contains(live, heading), strings.Contains(report, heading))
		}
	}
}
