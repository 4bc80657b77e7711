package diag

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteJSON emits the report as indented JSON (schema SchemaVersion).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// maxTextPathNodes caps the per-job critical-path listing in the text
// renderer; elided nodes are summarised.
const maxTextPathNodes = 64

// WriteText renders a human-readable diagnosis.
func (r *Report) WriteText(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("job diagnosis (%d job(s), %d dropped span(s))\n", len(r.Jobs), r.DroppedSpans)
	for _, j := range r.Jobs {
		bw.printf("\njob %d (%s): makespan %.3fs  [submit %.3fs → finish %.3fs]\n",
			j.JobID, j.Outcome, j.MakespanS, j.SubmitS, j.FinishS)
		bw.printf("  breakdown:\n")
		for _, c := range j.Breakdown.Components() {
			if c.Seconds == 0 {
				continue
			}
			pct := 0.0
			if j.MakespanS > 0 {
				pct = 100 * c.Seconds / j.MakespanS
			}
			bw.printf("    %-18s %10.3fs  %5.1f%%\n", c.Name, c.Seconds, pct)
		}
		bw.printf("  critical path (%d node(s)):\n", len(j.CriticalPath))
		shown := j.CriticalPath
		if len(shown) > maxTextPathNodes {
			shown = shown[:maxTextPathNodes]
		}
		for _, n := range shown {
			id := "-"
			if n.Task >= 0 {
				id = fmt.Sprintf("task %d att %d node %d", n.Task, n.Attempt, n.Node)
			}
			det := ""
			if n.Detail != "" {
				det = "  (" + n.Detail + ")"
			}
			bw.printf("    [%10.3f → %10.3f] %8.3fs  %-18s %s%s\n",
				n.Start, n.End, n.Duration(), n.Kind, id, det)
		}
		if extra := len(j.CriticalPath) - len(shown); extra > 0 {
			bw.printf("    … %d more node(s) elided (see dynmr render diag-json)\n", extra)
		}
		for _, a := range j.Anomalies {
			bw.printf("  anomaly [%s]: %s\n", a.Kind, a.Detail)
		}
	}
	for _, a := range r.ClusterAnomalies {
		bw.printf("\ncluster anomaly [%s]: %s\n", a.Kind, a.Detail)
	}
	if len(r.Counters) > 0 {
		bw.printf("\ncounters:\n")
		names := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			bw.printf("  %-28s %d\n", k, r.Counters[k])
		}
	}
	return bw.err
}

// Component is one named breakdown category (stable rendering order).
type Component struct {
	Name    string
	Seconds float64
}

// Components returns the breakdown categories in canonical order.
func (b Breakdown) Components() []Component {
	return []Component{
		{"slot-wait", b.SlotWaitS},
		{"provider-wait", b.ProviderWaitS},
		{"startup", b.StartupS},
		{"data-read-local", b.DataReadLocalS},
		{"data-read-remote", b.DataReadRemoteS},
		{"map-compute", b.MapComputeS},
		{"shuffle", b.ShuffleS},
		{"reduce", b.ReduceS},
		{"untraced", b.UntracedS},
	}
}

// csvHeader is the per-job diagnosis CSV schema (`dynmr render
// diag-csv`).
var csvHeader = []string{
	"job", "outcome", "submit_s", "finish_s", "makespan_s",
	"slot_wait_s", "provider_wait_s", "startup_s",
	"data_read_local_s", "data_read_remote_s",
	"map_compute_s", "shuffle_s", "reduce_s", "untraced_s",
	"path_nodes", "stragglers", "speculative_waste_s",
}

// WriteJobsCSV emits one row per diagnosed job.
func (r *Report) WriteJobsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, j := range r.Jobs {
		stragglers := 0
		waste := 0.0
		for _, a := range j.Anomalies {
			switch a.Kind {
			case AnomalyStraggler:
				stragglers++
			case AnomalySpeculativeWaste:
				waste += a.Value
			}
		}
		b := j.Breakdown
		row := []string{
			strconv.Itoa(j.JobID), j.Outcome,
			f(j.SubmitS), f(j.FinishS), f(j.MakespanS),
			f(b.SlotWaitS), f(b.ProviderWaitS), f(b.StartupS),
			f(b.DataReadLocalS), f(b.DataReadRemoteS),
			f(b.MapComputeS), f(b.ShuffleS), f(b.ReduceS), f(b.UntracedS),
			strconv.Itoa(len(j.CriticalPath)), strconv.Itoa(stragglers), f(waste),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
