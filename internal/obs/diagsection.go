package obs

import (
	"fmt"
	"strings"

	"dynamicmr/internal/diag"
)

// diagPalette maps breakdown components and path-node kinds to the
// report's categorical palette (CSS custom properties).
var diagPalette = map[string]string{
	diag.KindSlotWait:       "--series-4",
	diag.KindProviderWait:   "--series-5",
	diag.KindStartup:        "--series-7",
	diag.KindDiskReadLocal:  "--series-3",
	diag.KindDiskReadRemote: "--series-6",
	diag.KindNetRead:        "--series-6",
	diag.KindMapCPU:         "--series-1",
	diag.KindShuffle:        "--series-2",
	diag.KindSort:           "--series-8",
	diag.KindReduceCPU:      "--series-8",
	diag.KindOutputWrite:    "--series-8",
	diag.KindUntraced:       "--baseline",
	// Aggregate breakdown components that fold several kinds.
	"data-read-local":  "--series-3",
	"data-read-remote": "--series-6",
	"map-compute":      "--series-1",
	"reduce":           "--series-8",
}

func diagColor(kind string) string {
	if v, ok := diagPalette[kind]; ok {
		return v
	}
	return "--text-muted"
}

// maxDiagJobs bounds the per-job breakdown rows; maxDiagPathRows bounds
// the critical-path table of the featured (longest) job.
const (
	maxDiagJobs     = 12
	maxDiagPathRows = 40
)

// writeStackRow draws one labelled breakdown bar, widthPct of the row
// wide: the job's breakdown components as segments proportional to
// their share of its makespan.
func writeStackRow(b *strings.Builder, label string, widthPct float64, d *diag.JobDiagnosis) {
	fmt.Fprintf(b, `<div class="diag-row"><span class="diag-label" title="%s">%s</span><div class="track"><div class="stack" style="width:%.2f%%">`,
		esc(label), esc(label), widthPct)
	if d.MakespanS > 0 {
		for _, c := range d.Breakdown.Components() {
			if c.Seconds <= 0 {
				continue
			}
			pct := c.Seconds / d.MakespanS * 100
			fmt.Fprintf(b, `<span style="width:%.3f%%;background:var(%s)" title="%s %ss (%.1f%%)"></span>`,
				pct, diagColor(c.Name), esc(c.Name), fnum(c.Seconds), pct)
		}
	}
	b.WriteString("</div></div></div>\n")
}

// breakdownLegend keys, in canonical order, the breakdown components
// that take time in any of ds.
func breakdownLegend(b *strings.Builder, ds []*diag.JobDiagnosis) {
	comps := diag.Breakdown{}.Components()
	used := make([]bool, len(comps))
	for _, d := range ds {
		for i, c := range d.Breakdown.Components() {
			used[i] = used[i] || c.Seconds > 0
		}
	}
	var ss []series
	for i, c := range comps {
		if used[i] {
			ss = append(ss, series{name: c.Name, colorVar: diagColor(c.Name)})
		}
	}
	legend(b, ss)
}

// writeDiagSection renders the job-diagnosis section: one stacked
// breakdown bar per job (components sum to the makespan), anomaly
// notes, and the critical path of the longest job as a table.
func (r *Report) writeDiagSection(b *strings.Builder) {
	if r.Diag == nil || len(r.Diag.Jobs) == 0 {
		return
	}
	b.WriteString("<section>\n<h2>Job diagnosis</h2>\n")
	b.WriteString("<p class=\"note\">Each bar partitions the job's makespan along its critical path; components sum to the makespan by construction.</p>\n")

	jobs := make([]*diag.JobDiagnosis, len(r.Diag.Jobs))
	for i := range r.Diag.Jobs {
		jobs[i] = &r.Diag.Jobs[i]
	}
	breakdownLegend(b, jobs)
	b.WriteString("\n")
	if len(jobs) > maxDiagJobs {
		jobs = jobs[:maxDiagJobs]
	}
	for _, j := range jobs {
		writeStackRow(b, fmt.Sprintf("job %d (%s) · %ss", j.JobID, j.Outcome, fnum(j.MakespanS)), 100, j)
		for _, a := range j.Anomalies {
			fmt.Fprintf(b, "<p class=\"note\">⚠ %s: %s</p>\n", esc(a.Kind), esc(a.Detail))
		}
	}
	if omitted := len(r.Diag.Jobs) - len(jobs); omitted > 0 {
		fmt.Fprintf(b, "<p class=\"note\">%d more job(s) omitted; the diagnosis CSV/JSON carries all of them.</p>\n", omitted)
	}
	for _, a := range r.Diag.ClusterAnomalies {
		fmt.Fprintf(b, "<p class=\"note\">⚠ cluster %s: %s</p>\n", esc(a.Kind), esc(a.Detail))
	}

	// Critical-path table for the longest job.
	longest := &r.Diag.Jobs[0]
	for i := range r.Diag.Jobs {
		if r.Diag.Jobs[i].MakespanS > longest.MakespanS {
			longest = &r.Diag.Jobs[i]
		}
	}
	fmt.Fprintf(b, "<h3>Critical path — job %d (%ss makespan)</h3>\n", longest.JobID, fnum(longest.MakespanS))
	b.WriteString("<table>\n<thead><tr><th></th><th>start (s)</th><th>end (s)</th><th>duration (s)</th>" +
		"<th>kind</th><th>task</th><th>attempt</th><th>node</th><th>detail</th></tr></thead>\n<tbody>\n")
	for i, n := range longest.CriticalPath {
		if i >= maxDiagPathRows {
			fmt.Fprintf(b, "<tr><td colspan=\"9\">… %d more node(s)</td></tr>\n", len(longest.CriticalPath)-maxDiagPathRows)
			break
		}
		task, att, node := "—", "—", "—"
		if n.Task >= 0 {
			task = fmt.Sprintf("%d", n.Task)
		}
		if n.Attempt > 0 {
			att = fmt.Sprintf("%d", n.Attempt)
		}
		if n.Node >= 0 {
			node = fmt.Sprintf("%d", n.Node)
		}
		fmt.Fprintf(b, "<tr><td><span class=\"swatch\" style=\"background:var(%s)\"></span></td>"+
			"<td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			diagColor(n.Kind), fnum(n.Start), fnum(n.End), fnum(n.Duration()),
			esc(n.Kind), task, att, node, esc(n.Detail))
	}
	b.WriteString("</tbody>\n</table>\n</section>\n")
}

// critKey identifies a task attempt on some job's critical path, split
// by attempt category so map and reduce task IDs don't collide.
type critKey struct {
	job, task, attempt int
	kind               string // "map" or "reduce"
}

// mapKinds and reduceKinds classify path-node kinds whose attempt
// category is unambiguous.
func pathNodeCat(kind string) string {
	switch kind {
	case diag.KindDiskReadLocal, diag.KindDiskReadRemote, diag.KindNetRead, diag.KindMapCPU:
		return "map"
	case diag.KindShuffle, diag.KindSort, diag.KindReduceCPU, diag.KindOutputWrite:
		return "reduce"
	}
	return "" // startup, untraced, waits: resolved from siblings
}

// criticalBars collects the (job, task, attempt, kind) identities of
// every attempt appearing on any job's critical path, for the Gantt
// overlay. Ambiguous nodes (startup, untraced) inherit the category of
// a sibling node from the same attempt.
func (r *Report) criticalBars() map[critKey]bool {
	if r.Diag == nil {
		return nil
	}
	out := map[critKey]bool{}
	for _, j := range r.Diag.Jobs {
		// First pass: attempts with an unambiguous node.
		cat := map[[2]int]string{}
		for _, n := range j.CriticalPath {
			if c := pathNodeCat(n.Kind); c != "" && n.Task >= 0 && n.Attempt > 0 {
				cat[[2]int{n.Task, n.Attempt}] = c
			}
		}
		for _, n := range j.CriticalPath {
			if n.Task < 0 || n.Attempt <= 0 {
				continue
			}
			c := pathNodeCat(n.Kind)
			if c == "" {
				c = cat[[2]int{n.Task, n.Attempt}]
			}
			if c == "" {
				continue
			}
			out[critKey{job: j.JobID, task: n.Task, attempt: n.Attempt, kind: c}] = true
		}
	}
	return out
}
