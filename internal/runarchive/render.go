package runarchive

import (
	"fmt"
	"io"
	"strings"

	"dynamicmr/internal/diag"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/tsdb"
)

// RenderKinds lists the views Render writes, in `dynmr render` usage
// order.
var RenderKinds = []string{"qstats", "alerts", "diag", "diag-json", "diag-csv", "chrome", "timeline"}

// Render writes one view of the archive to w:
//
//   - qstats: the per-query stats dump (schema dynamicmr.qstats/1);
//   - alerts: the alert rules, firing set and event log (schema
//     dynamicmr.alerts/1);
//   - diag, diag-json, diag-csv: the job diagnosis as text, as JSON
//     (schema dynamicmr.diag/1) or as one CSV row per job;
//   - chrome: a Chrome trace-event file for https://ui.perfetto.dev or
//     chrome://tracing;
//   - timeline: the utilization timeline (the sample records) as CSV.
//
// Each view is byte-identical to what the live writer emits for the
// run the archive was cut from. A section the archive lacks renders as
// its schema-valid empty dump.
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
	}
	return fmt.Errorf("runarchive: unknown render kind %q (want %s)", kind, strings.Join(RenderKinds, ", "))
}
