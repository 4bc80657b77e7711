package runarchive

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dynamicmr/internal/diag"
	"dynamicmr/internal/obs"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/tsdb"
)

// RenderKinds lists the views Render writes, in `dynmr render` usage
// order.
var RenderKinds = []string{"qstats", "alerts", "diag", "diag-json", "diag-csv", "chrome", "timeline", "report"}

// Render writes one view of the archive to w:
//
//   - qstats: the per-query stats dump (schema dynamicmr.qstats/1);
//   - alerts: the alert rules, firing set and event log (schema
//     dynamicmr.alerts/1);
//   - diag, diag-json, diag-csv: the job diagnosis as text, as JSON
//     (schema dynamicmr.diag/1) or as one CSV row per job;
//   - chrome: a Chrome trace-event file for https://ui.perfetto.dev or
//     chrome://tracing;
//   - timeline: the utilization timeline (the sample records) as CSV;
//   - report: the self-contained HTML run report (obs.Report).
//
// Each dump is byte-identical to what its live writer emits for the
// run the archive was cut from. A section the archive lacks renders as
// its schema-valid empty dump, or as a report without that section.
func (a *Archive) Render(w io.Writer, kind string) error {
	rep := a.Diagnosis
	if rep == nil {
		rep = &diag.Report{Schema: diag.SchemaVersion, DroppedSpans: a.Manifest.DroppedSpans}
	}
	switch kind {
	case "qstats":
		d := qstats.Dump{Schema: qstats.SchemaVersion, VirtualTimeS: a.Manifest.VirtualTimeS}
		if a.Queries != nil {
			d = *a.Queries
		}
		return d.WriteJSON(w)
	case "alerts":
		d := tsdb.AlertsDump{Schema: tsdb.AlertsSchemaVersion, VirtualTimeS: a.Manifest.VirtualTimeS}
		if a.Alerts != nil {
			d = *a.Alerts
		}
		return d.WriteJSON(w)
	case "diag":
		return rep.WriteText(w)
	case "diag-json":
		return rep.WriteJSON(w)
	case "diag-csv":
		return rep.WriteJobsCSV(w)
	case "chrome":
		return trace.WriteChromeTrace(w, a.Spans, a.Decisions, a.Samples, a.Manifest.DroppedSpans)
	case "timeline":
		return trace.WriteMetricCSV(w, a.Samples)
	case "report":
		return a.report().WriteHTML(w)
	}
	return fmt.Errorf("runarchive: unknown render kind %q (want %s)", kind, strings.Join(RenderKinds, ", "))
}

// report assembles the HTML run report from the archive alone: the
// snapshots for the utilization charts (none without a sampler), the
// time series for the trends, the spans for the Gantt, the decisions
// for the overlay and the per-policy table, the counters, diagnosis,
// query stats and alerts, with the label as title and the run config
// as params.
func (a *Archive) report() *obs.Report {
	return &obs.Report{
		Title:     a.Manifest.Label,
		Params:    a.Manifest.Config.params(),
		Snaps:     a.Snapshots,
		Gantt:     obs.BuildGantt(a.Spans),
		Decisions: a.Decisions,
		Counters:  a.Counters,
		Diag:      a.Diagnosis,
		Dropped:   a.Manifest.DroppedSpans,
		Queries:   a.Queries,
		Series:    a.Series,
		Alerts:    a.Alerts,
	}
}

// params lists the run config as report rows: policy, input path, scan
// workers, seed and git revision, then Params by key.
func (c RunConfig) params() [][2]string {
	var out [][2]string
	add := func(k, v string) {
		if v != "" {
			out = append(out, [2]string{k, v})
		}
	}
	add("policy", c.Policy)
	add("input path", c.InputPath)
	add("scan workers", strconv.Itoa(c.ScanWorkers))
	add("seed", strconv.FormatInt(c.Seed, 10))
	add("git revision", c.GitRev)
	keys := make([]string, 0, len(c.Params))
	for k := range c.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		add(k, c.Params[k])
	}
	return out
}
