package obs

import (
	"fmt"
	"io"
	"math"
	"strings"

	"dynamicmr/internal/diag"
)

// WriteDiffHTML renders a cross-run diff (`dynmr diff -html`) as a
// self-contained page in the report's style: per aligned job, paired
// breakdown stacks (A over B on a shared scale) and aligned critical
// paths (each normalized to its submit time on a shared time axis),
// the component-delta table, the first divergent decision and the
// anomalies present on one side only; then the unmatched jobs, alert
// differences and counter deltas.
func WriteDiffHTML(w io.Writer, r *diag.DiffReport) error {
	return writePage(w, fmt.Sprintf("run diff — A: %s vs B: %s", r.ALabel, r.BLabel), pageFrame{}, func(b *strings.Builder) {
		fmt.Fprintf(b, "<p class=\"note\">%d aligned job(s); deltas are B−A, so positive means B is slower. "+
			"Per-component deltas sum to the makespan delta by construction.</p>\n", len(r.Jobs))
		fmt.Fprintf(b, "<p>total makespan delta: <b class=%q>%+.3fs</b></p>\n",
			deltaClass(r.TotalMakespanDeltaS), r.TotalMakespanDeltaS)

		// One legend for every stack and path on the page.
		var sides []*diag.JobDiagnosis
		for _, j := range r.Jobs {
			sides = append(sides, j.A, j.B)
		}
		breakdownLegend(b, sides)
		b.WriteString("\n")

		for _, j := range r.Jobs {
			writeJobDelta(b, j, r.ALabel, r.BLabel)
		}

		if len(r.OnlyA) > 0 || len(r.OnlyB) > 0 {
			b.WriteString("<section>\n<h2>Unmatched jobs</h2>\n")
			if len(r.OnlyA) > 0 {
				fmt.Fprintf(b, "<p class=\"note\">only in A: %s</p>\n", esc(strings.Join(r.OnlyA, ", ")))
			}
			if len(r.OnlyB) > 0 {
				fmt.Fprintf(b, "<p class=\"note\">only in B: %s</p>\n", esc(strings.Join(r.OnlyB, ", ")))
			}
			b.WriteString("</section>\n")
		}

		if len(r.AlertsOnlyA) > 0 || len(r.AlertsOnlyB) > 0 {
			b.WriteString("<section>\n<h2>Alert differences</h2>\n")
			for _, s := range r.AlertsOnlyA {
				fmt.Fprintf(b, "<p class=\"note\">⚠ alert only in A: %s</p>\n", esc(s))
			}
			for _, s := range r.AlertsOnlyB {
				fmt.Fprintf(b, "<p class=\"note\">⚠ alert only in B: %s</p>\n", esc(s))
			}
			b.WriteString("</section>\n")
		}

		if len(r.CounterDeltas) > 0 {
			b.WriteString("<section>\n<h2>Counter deltas</h2>\n" +
				"<table>\n<thead><tr><th>counter</th><th>A</th><th>B</th><th>delta</th></tr></thead>\n<tbody>\n")
			for _, c := range r.CounterDeltas {
				fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%+d</td></tr>\n",
					esc(c.Name), c.A, c.B, c.Delta)
			}
			b.WriteString("</tbody>\n</table>\n</section>\n")
		}
	})
}

// writeJobDelta renders one aligned job's section of the diff page.
func writeJobDelta(b *strings.Builder, j diag.JobDelta, aLabel, bLabel string) {
	fmt.Fprintf(b, "<section>\n<h2>%s — makespan %.3fs → %.3fs (<span class=%q>%+.3fs</span>)</h2>\n",
		esc(j.Key), j.AMakespanS, j.BMakespanS, deltaClass(j.MakespanDeltaS), j.MakespanDeltaS)

	// Paired stacks on a shared scale: each stack's width is its
	// makespan's share of the slower side's, so A and B compare directly.
	scale := math.Max(j.AMakespanS, j.BMakespanS)
	widthPct := func(v float64) float64 {
		if scale <= 0 {
			return 100
		}
		return v / scale * 100
	}
	writeStackRow(b, fmt.Sprintf("%s · job %d", aLabel, j.A.JobID), widthPct(j.A.MakespanS), j.A)
	writeStackRow(b, fmt.Sprintf("%s · job %d", bLabel, j.B.JobID), widthPct(j.B.MakespanS), j.B)

	writeAlignedPaths(b, j, scale, aLabel, bLabel)

	b.WriteString("<table>\n<thead><tr><th>component</th><th>A (s)</th><th>B (s)</th><th>delta (s)</th></tr></thead>\n<tbody>\n")
	for _, c := range j.Components {
		if c.AS == 0 && c.BS == 0 {
			continue
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%.3f</td><td>%.3f</td><td class=%q>%+.3f</td></tr>\n",
			esc(c.Name), c.AS, c.BS, deltaClass(c.DeltaS), c.DeltaS)
	}
	fmt.Fprintf(b, "<tr><td><b>makespan</b></td><td>%.3f</td><td>%.3f</td><td class=%q><b>%+.3f</b></td></tr>\n",
		j.AMakespanS, j.BMakespanS, deltaClass(j.MakespanDeltaS), j.MakespanDeltaS)
	b.WriteString("</tbody>\n</table>\n")

	if d := j.FirstDivergence; d != nil {
		fmt.Fprintf(b, "<p class=\"note\">⚠ first divergent provider decision at index %d (%s): ", d.Index, esc(d.Reason))
		writeDecisionSide(b, "A", d.A)
		b.WriteString(" · ")
		writeDecisionSide(b, "B", d.B)
		b.WriteString("</p>\n")
	} else {
		b.WriteString("<p class=\"note\">provider decisions: identical twins</p>\n")
	}
	for _, s := range j.AnomaliesOnlyA {
		fmt.Fprintf(b, "<p class=\"note\">⚠ anomaly only in A: %s</p>\n", esc(s))
	}
	for _, s := range j.AnomaliesOnlyB {
		fmt.Fprintf(b, "<p class=\"note\">⚠ anomaly only in B: %s</p>\n", esc(s))
	}
	b.WriteString("</section>\n")
}

// writeDecisionSide describes one side's decision at the divergence,
// or that its sequence ended first.
func writeDecisionSide(b *strings.Builder, side string, d *diag.DecisionPoint) {
	if d == nil {
		b.WriteString(side + " ended")
		return
	}
	fmt.Fprintf(b, "%s t=%.3fs %s %s added=%d limit=%d", side, d.TimeS, esc(d.Policy), esc(d.Verdict), d.Added, d.GrabLimit)
}

// writeAlignedPaths draws both critical paths as two lanes on a shared
// time axis, each starting at its side's submit time.
func writeAlignedPaths(b *strings.Builder, j diag.JobDelta, xmax float64, aLabel, bLabel string) {
	if xmax <= 0 || (len(j.A.CriticalPath) == 0 && len(j.B.CriticalPath) == 0) {
		return
	}
	const laneH, laneGap = 16.0, 8.0
	g := chartGeom{w: 920, left: 120, right: 16, top: 6, bottom: 22, xmax: xmax}
	g.h = g.top + 2*laneH + laneGap + g.bottom
	fmt.Fprintf(b, `<svg viewBox="0 0 %g %g" role="img" aria-label="aligned critical paths" preserveAspectRatio="xMidYMid meet">`, g.w, g.h)
	writeTimeAxis(b, g)
	lane := func(y float64, label string, d *diag.JobDiagnosis) {
		fmt.Fprintf(b, `<text x="%g" y="%g" class="tick" text-anchor="end">%s</text>`, g.left-6, y+laneH-4, esc(clip(label, 18)))
		for _, n := range d.CriticalPath {
			s, e := n.Start-d.SubmitS, n.End-d.SubmitS
			if e <= s {
				continue
			}
			fmt.Fprintf(b, `<rect x="%.2f" y="%g" width="%.2f" height="%g" fill="var(%s)"><title>%s [%s → %s] %ss</title></rect>`,
				g.px(s), y, math.Max(g.px(e)-g.px(s), 0.5), laneH, diagColor(n.Kind),
				esc(n.Kind), fnum(n.Start), fnum(n.End), fnum(n.End-n.Start))
		}
	}
	lane(g.top, aLabel, j.A)
	lane(g.top+laneH+laneGap, bLabel, j.B)
	b.WriteString("</svg>\n")
}

// deltaClass colors positive deltas (B slower) red, negative green.
func deltaClass(d float64) string {
	switch {
	case d > 0:
		return "pos"
	case d < 0:
		return "neg"
	}
	return ""
}
