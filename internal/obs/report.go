package obs

import (
	"fmt"
	"html"
	"io"
	"math"
	"slices"
	"strings"
	"unicode/utf8"

	"dynamicmr/internal/diag"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/tsdb"
)

// Report is the self-contained HTML run report: per-node utilization
// timelines, the time-series trends, the slot-occupancy Gantt,
// policy-decision overlay markers, per-query stats, alerts and the
// registry's counters — everything inlined (no external assets) so the
// file can be archived as a CI artifact or mailed around. It is built
// from a run archive (runarchive's "report" view) or, for the /live
// page, from the Server's published snapshot; each section is omitted
// when its input is absent.
type Report struct {
	// Title heads the report.
	Title string
	// Params are free-form key/value rows shown under the title (the
	// run's configuration: policy, scale, skew...).
	Params [][2]string

	// Snaps is the sampler's full series; WriteHTML strides long
	// series down.
	Snaps     []Snapshot
	Gantt     Gantt
	Decisions []trace.PolicyDecision
	Counters  map[string]int64
	// Diag is the post-run job diagnosis (critical paths, time
	// breakdowns, anomalies); nil when the run was untraced.
	Diag *diag.Report
	// Dropped counts spans evicted from the trace ring; when non-zero
	// the Gantt is incomplete and the report says so.
	Dropped int64
	// Queries is the per-query registry dump: rolling per-policy
	// latency, the in-flight queries and the finished ones, newest
	// last; nil when qstats was not enabled.
	Queries *qstats.Dump
	// Series is the time-series engine dump the Trends charts draw;
	// nil when no engine was attached.
	Series *tsdb.Dump
	// Alerts is the alert layer's final snapshot (rules, firing set,
	// transition log); nil when no time-series engine was attached. The
	// firing/resolved transitions also annotate the utilization chart.
	Alerts *tsdb.AlertsDump
}

// maxReportSamples bounds the chart paths and the data table: longer
// runs are strided down to roughly this many snapshots (the last one
// always kept) so paper-scale reports stay a viewable size. Full
// fidelity remains available in the archive's snapshot records.
const maxReportSamples = 600

// thinSnaps strides snaps down to at most maxReportSamples+1 entries.
func thinSnaps(snaps []Snapshot) []Snapshot {
	if len(snaps) <= maxReportSamples {
		return snaps
	}
	stride := (len(snaps) + maxReportSamples - 1) / maxReportSamples
	out := make([]Snapshot, 0, maxReportSamples+1)
	for i := 0; i < len(snaps); i += stride {
		out = append(out, snaps[i])
	}
	if last := snaps[len(snaps)-1]; out[len(out)-1].Time != last.Time {
		out = append(out, last)
	}
	return out
}

// esc escapes text for HTML and attribute contexts.
func esc(s string) string { return html.EscapeString(s) }

// clip shortens s to at most n runes, the last an ellipsis. It counts
// runes, not bytes, so a cut never splits a multibyte character.
func clip(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	return string([]rune(s)[:n-1]) + "…"
}

// fnum trims a float for display.
func fnum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// point is one (time, value) vertex of a chart series.
type point struct{ x, y float64 }

// series is one named line on a chart; colorVar is the CSS custom
// property carrying its stroke ("--series-1"...).
type series struct {
	name     string
	colorVar string
	pts      []point
}

// marker is a vertical overlay line (policy decision) on a chart.
type marker struct {
	x     float64
	label string
	class string // "grow" or "eoi"
}

// chartGeom is the shared plot geometry. The time axis runs from xmin
// to xmax.
type chartGeom struct {
	w, h                     float64
	left, right, top, bottom float64
	xmin, xmax, ymax         float64
}

func (g chartGeom) plotW() float64 { return g.w - g.left - g.right }
func (g chartGeom) plotH() float64 { return g.h - g.top - g.bottom }
func (g chartGeom) px(x float64) float64 {
	if g.xmax <= g.xmin {
		return g.left
	}
	return g.left + (x-g.xmin)/(g.xmax-g.xmin)*g.plotW()
}
func (g chartGeom) py(y float64) float64 {
	if g.ymax <= 0 {
		return g.h - g.bottom
	}
	return g.h - g.bottom - y/g.ymax*g.plotH()
}

// niceMax rounds v up to a tidy axis maximum.
func niceMax(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 2, 2.5, 5, 10} {
		if v <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}

// writeTimeAxis draws the time axis every chart shares: six ticks from
// xmin to xmax, each with a hairline across the plot and a label in
// seconds below it.
func writeTimeAxis(b *strings.Builder, g chartGeom) {
	for i := 0; i <= 5; i++ {
		xv := g.xmin + (g.xmax-g.xmin)*float64(i)/5
		x := g.px(xv)
		fmt.Fprintf(b, `<line x1="%g" y1="%g" x2="%g" y2="%g" class="grid"/>`, x, g.top, x, g.h-g.bottom)
		fmt.Fprintf(b, `<text x="%g" y="%g" class="tick" text-anchor="middle">%ss</text>`, x, g.h-g.bottom+14, fnum(xv))
	}
}

// writeMarkers draws the overlay lines that fall on the time axis.
func writeMarkers(b *strings.Builder, markers []marker, g chartGeom) {
	for _, m := range markers {
		if m.x < g.xmin || m.x > g.xmax {
			continue
		}
		x := g.px(m.x)
		fmt.Fprintf(b, `<line x1="%g" y1="%g" x2="%g" y2="%g" class="mark-%s"><title>%s</title></line>`,
			x, g.top, x, g.h-g.bottom, m.class, esc(m.label))
	}
}

// writeLineChart renders one SVG line chart with a 10% area wash under
// each series, hairline gridlines, one y axis, and per-vertex hover
// titles. yUnit annotates tick labels ("%" or "KB/s" or "").
func writeLineChart(b *strings.Builder, ss []series, markers []marker, g chartGeom, yUnit string) {
	fmt.Fprintf(b, `<svg viewBox="0 0 %g %g" role="img" preserveAspectRatio="xMidYMid meet">`, g.w, g.h)
	// Gridlines + y ticks.
	for i := 0; i <= 4; i++ {
		yv := g.ymax * float64(i) / 4
		y := g.py(yv)
		fmt.Fprintf(b, `<line x1="%g" y1="%g" x2="%g" y2="%g" class="grid"/>`, g.left, y, g.w-g.right, y)
		fmt.Fprintf(b, `<text x="%g" y="%g" class="tick" text-anchor="end">%s%s</text>`,
			g.left-6, y+3.5, fnum(yv), yUnit)
	}
	writeTimeAxis(b, g)
	// Baseline.
	fmt.Fprintf(b, `<line x1="%g" y1="%g" x2="%g" y2="%g" class="baseline"/>`,
		g.left, g.py(0), g.w-g.right, g.py(0))
	// Decision markers under the series.
	writeMarkers(b, markers, g)
	for _, s := range ss {
		if len(s.pts) == 0 {
			continue
		}
		var line, area strings.Builder
		for i, p := range s.pts {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&line, "%s%.2f %.2f", cmd, g.px(p.x), g.py(clampY(p.y, g.ymax)))
		}
		first, last := s.pts[0], s.pts[len(s.pts)-1]
		fmt.Fprintf(&area, "%sL%.2f %.2fL%.2f %.2fZ",
			line.String(), g.px(last.x), g.py(0), g.px(first.x), g.py(0))
		fmt.Fprintf(b, `<path d="%s" fill="var(%s)" fill-opacity="0.1" stroke="none"/>`, area.String(), s.colorVar)
		fmt.Fprintf(b, `<path d="%s" fill="none" stroke="var(%s)" stroke-width="2" stroke-linejoin="round"/>`,
			line.String(), s.colorVar)
		// Hover targets: invisible wide circles with titles, one per
		// radius of plot width at most (closer ones would hide under
		// their neighbour), and always the last vertex.
		lastX := math.Inf(-1)
		for i, p := range s.pts {
			x := g.px(p.x)
			if x-lastX < 7 && i < len(s.pts)-1 {
				continue
			}
			lastX = x
			fmt.Fprintf(b, `<circle cx="%.2f" cy="%.2f" r="7" fill="transparent"><title>%s · t=%ss · %s%s</title></circle>`,
				x, g.py(clampY(p.y, g.ymax)), esc(s.name), fnum(p.x), fnum(p.y), yUnit)
		}
	}
	b.WriteString(`</svg>`)
}

func clampY(v, ymax float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > ymax {
		return ymax
	}
	return v
}

// legend renders the series legend row (always present for >= 2
// series; swatches carry color, text wears ink tokens).
func legend(b *strings.Builder, ss []series) {
	if len(ss) < 2 {
		return
	}
	b.WriteString(`<div class="legend">`)
	for _, s := range ss {
		fmt.Fprintf(b, `<span class="key"><span class="swatch" style="background:var(%s)"></span>%s</span>`,
			s.colorVar, esc(s.name))
	}
	b.WriteString(`</div>`)
}

// timeAxis returns the report's shared time axis: from where the first
// snapshot's interval starts (0 without snapshots, and no later than
// the first Gantt bar) to the last snapshot or Gantt bar.
func (r *Report) timeAxis() (xmin, xmax float64) {
	if len(r.Snaps) > 0 {
		xmin = r.Snaps[0].Time - r.Snaps[0].IntervalS
	}
	for _, s := range r.Snaps {
		xmax = math.Max(xmax, s.Time)
	}
	for _, bar := range r.Gantt.Bars {
		xmin = math.Min(xmin, bar.Start)
		xmax = math.Max(xmax, bar.End)
	}
	return xmin, xmax
}

// decisionMarkers thins the audit log to chart overlays: every GROW
// (capped) plus the EOI, which closes the job's input.
func (r *Report) decisionMarkers() []marker {
	var ms []marker
	for _, d := range r.Decisions {
		switch d.Verdict {
		case trace.VerdictGrow, trace.VerdictInit:
			ms = append(ms, marker{x: d.Time, class: "grow",
				label: fmt.Sprintf("%s job %d +%d splits (limit %d) @ %ss", d.Policy, d.JobID, d.Added, d.GrabLimit, fnum(d.Time))})
		case trace.VerdictEOI:
			ms = append(ms, marker{x: d.Time, class: "eoi",
				label: fmt.Sprintf("%s job %d end of input @ %ss", d.Policy, d.JobID, fnum(d.Time))})
		}
	}
	const capMarkers = 120
	if len(ms) > capMarkers {
		step := (len(ms) + capMarkers - 1) / capMarkers
		thin := ms[:0]
		for i := 0; i < len(ms); i += step {
			thin = append(thin, ms[i])
		}
		ms = thin
	}
	return ms
}

// alertMarkers overlays the alert log's firing/resolved transitions on
// the charts, next to the policy-decision markers.
func (r *Report) alertMarkers() []marker {
	if r.Alerts == nil {
		return nil
	}
	var ms []marker
	for _, e := range r.Alerts.Events {
		ms = append(ms, marker{x: e.TimeS, class: "alert",
			label: fmt.Sprintf("alert %s %s (%.4g vs %.4g) @ %ss", e.Rule, e.State, e.Value, e.Threshold, fnum(e.TimeS))})
	}
	const capAlertMarkers = 60
	if len(ms) > capAlertMarkers {
		ms = ms[len(ms)-capAlertMarkers:]
	}
	return ms
}

// pageFrame is what a served page adds around its content: a refresh
// interval, and a footer that says so and links the other endpoints.
// Files pass the zero frame.
type pageFrame struct {
	refreshS int
	links    []string
}

// writePage writes one self-contained HTML document: the shared
// stylesheet, title as <title> and heading, the content body writes,
// and the frame's refresh meta and footer.
func writePage(w io.Writer, title string, f pageFrame, body func(b *strings.Builder)) error {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
	if f.refreshS > 0 {
		fmt.Fprintf(&b, "<meta http-equiv=\"refresh\" content=\"%d\">\n", f.refreshS)
	}
	fmt.Fprintf(&b, "<title>%s</title>\n", esc(title))
	b.WriteString(reportCSS)
	b.WriteString("</head>\n<body>\n<div class=\"viz-root\">\n")
	fmt.Fprintf(&b, "<h1>%s</h1>\n", esc(title))
	body(&b)
	if f.refreshS > 0 {
		fmt.Fprintf(&b, `<p class="note">Refreshes every %d s.`, f.refreshS)
		for _, l := range f.links {
			fmt.Fprintf(&b, ` <a href="%s">%s</a>`, esc(l), esc(l))
		}
		b.WriteString("</p>\n")
	}
	b.WriteString("</div>\n</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteHTML renders the self-contained report.
func (r *Report) WriteHTML(w io.Writer) error { return r.writeHTML(w, pageFrame{}) }

func (r *Report) writeHTML(w io.Writer, f pageFrame) error {
	return writePage(w, r.Title, f, func(b *strings.Builder) {
		if len(r.Params) > 0 {
			b.WriteString(`<dl class="params">`)
			for _, kv := range r.Params {
				fmt.Fprintf(b, `<div><dt>%s</dt><dd>%s</dd></div>`, esc(kv[0]), esc(kv[1]))
			}
			b.WriteString("</dl>\n")
		}

		// The charts and the data table draw a stride of a long series.
		v := *r
		v.Snaps = thinSnaps(r.Snaps)
		xmin, xmax := v.timeAxis()
		markers := append(v.decisionMarkers(), v.alertMarkers()...)
		wide := chartGeom{w: 920, h: 230, left: 52, right: 16, top: 12, bottom: 26, xmin: xmin, xmax: xmax, ymax: 100}

		v.writeUtilizationSection(b, wide, markers)

		// The time-series engine's query and scan histories.
		v.writeTrendSection(b)

		// Per-policy splits granted (the growth curves that differentiate
		// LA from Hadoop).
		v.writeGrowthSection(b, wide)

		// Per-node small multiples.
		v.writeNodeSection(b, xmin, xmax)

		// Slot-occupancy Gantt (critical-path attempts outlined).
		v.writeGanttSection(b, xmin, xmax, markers)

		// Per-job diagnosis: breakdown bars + critical path.
		v.writeDiagSection(b)

		// Per-query registry detail (when qstats was enabled).
		v.writeQuerySection(b)

		// Alert rules and the firing/resolved log (when the time-series
		// engine was attached).
		v.writeAlertSection(b)

		// Policy summary + counters + data table.
		v.writePolicyTable(b)
		v.writeDataTable(b, len(r.Snaps))
		v.writeCounters(b)
	})
}

// writeUtilizationSection charts the cluster-level series: utilization,
// disk reads and queue depth. A run without snapshots has none.
func (r *Report) writeUtilizationSection(b *strings.Builder, wide chartGeom, markers []marker) {
	if len(r.Snaps) == 0 {
		return
	}
	util := []series{
		{name: "CPU util", colorVar: "--series-1"},
		{name: "Map slots", colorVar: "--series-2"},
		{name: "Reduce slots", colorVar: "--series-3"},
	}
	disk := series{name: "Disk read", colorVar: "--series-1"}
	queued := []series{
		{name: "Queued maps", colorVar: "--series-1"},
		{name: "Queued reduces", colorVar: "--series-2"},
	}
	var diskMax, queueMax, interval float64
	for _, s := range r.Snaps {
		util[0].pts = append(util[0].pts, point{s.Time, s.CPUUtilPct})
		util[1].pts = append(util[1].pts, point{s.Time, s.MapSlotPct})
		util[2].pts = append(util[2].pts, point{s.Time, s.ReduceSlotPct})
		disk.pts = append(disk.pts, point{s.Time, s.DiskReadKBs})
		queued[0].pts = append(queued[0].pts, point{s.Time, float64(s.QueuedMaps)})
		queued[1].pts = append(queued[1].pts, point{s.Time, float64(s.QueuedReduces)})
		diskMax = math.Max(diskMax, s.DiskReadKBs)
		queueMax = math.Max(queueMax, math.Max(float64(s.QueuedMaps), float64(s.QueuedReduces)))
		interval = math.Max(interval, s.IntervalS)
	}

	b.WriteString("<section>\n<h2>Cluster utilization</h2>\n")
	fmt.Fprintf(b, "<p class=\"note\">Interval means over %ss virtual-clock samples; vertical markers are Input Provider decisions (grow / end-of-input).</p>\n", fnum(interval))
	legend(b, util)
	writeLineChart(b, util, markers, wide, "%")
	b.WriteString("\n<h3>Disk read (per-disk mean)</h3>\n")
	dg := wide
	dg.h = 170
	dg.ymax = niceMax(diskMax)
	writeLineChart(b, []series{disk}, nil, dg, "")
	b.WriteString("\n<h3>Queue depth</h3>\n")
	qg := wide
	qg.h = 170
	qg.ymax = niceMax(queueMax)
	legend(b, queued)
	writeLineChart(b, queued, nil, qg, "")
	b.WriteString("</section>\n")
}

// trendSeries are the time-series engine histories the Trends section
// charts, in order; series the dump lacks, or holds under two points
// of, are skipped.
var trendSeries = []struct{ name, label string }{
	{"query.in_flight", "queries in flight"},
	{"query.match_rate", "match rate /s"},
	{"query.overshoot_ratio", "overshoot ratio"},
	{"query.split_cost_s", "split cost s"},
	{"cluster.running_jobs", "running jobs"},
	{"scan.blocks_read", "blocks read"},
	{"scan.blocks_skipped", "blocks skipped"},
}

// writeTrendSection charts the trend series as small multiples over
// each series' retained raw points.
func (r *Report) writeTrendSection(b *strings.Builder) {
	if r.Series == nil {
		return
	}
	byName := make(map[string][]tsdb.Point, len(r.Series.Series))
	for _, sd := range r.Series.Series {
		byName[sd.Name] = sd.Points
	}
	wrote := false
	for _, ts := range trendSeries {
		pts := byName[ts.name]
		if len(pts) < 2 {
			continue
		}
		if !wrote {
			b.WriteString("<section>\n<h2>Trends</h2>\n")
			fmt.Fprintf(b, "<p class=\"note\">Time-series engine samples every %ss.</p>\n<div class=\"multiples\">", fnum(r.Series.IntervalS))
			wrote = true
		}
		s := series{name: ts.label, colorVar: "--series-1"}
		var ymax float64
		for _, p := range pts {
			s.pts = append(s.pts, point{p.T, p.V})
			ymax = math.Max(ymax, p.V)
		}
		fmt.Fprintf(b, `<figure><figcaption>%s</figcaption>`, esc(ts.label))
		writeLineChart(b, []series{s}, nil, chartGeom{w: 300, h: 120, left: 34, right: 8, top: 6, bottom: 20,
			xmin: pts[0].T - r.Series.IntervalS, xmax: pts[len(pts)-1].T, ymax: niceMax(ymax)}, "")
		b.WriteString(`</figure>`)
	}
	if wrote {
		b.WriteString("</div>\n</section>\n")
	}
}

// writeGrowthSection charts cumulative splits granted per policy.
func (r *Report) writeGrowthSection(b *strings.Builder, g chartGeom) {
	if len(r.Decisions) == 0 {
		return
	}
	// Cumulative Added per policy over time.
	order := []string{}
	cum := map[string]int{}
	pts := map[string][]point{}
	for _, d := range r.Decisions {
		if _, ok := cum[d.Policy]; !ok {
			order = append(order, d.Policy)
		}
		cum[d.Policy] += d.Added
		pts[d.Policy] = append(pts[d.Policy], point{d.Time, float64(cum[d.Policy])})
	}
	var ss []series
	var ymax float64
	for i, p := range order {
		if i >= 8 {
			break // categorical palette is eight slots; fold the rest away
		}
		s := series{name: p, colorVar: fmt.Sprintf("--series-%d", i+1), pts: pts[p]}
		ss = append(ss, s)
		ymax = math.Max(ymax, float64(cum[p]))
	}
	g.ymax = niceMax(ymax)
	g.h = 200
	b.WriteString("<section>\n<h2>Input growth (splits granted)</h2>\n")
	legend(b, ss)
	writeLineChart(b, ss, nil, g, "")
	b.WriteString("</section>\n")
}

// writeNodeSection renders per-node small multiples: CPU and map-slot
// occupancy per node on a shared percent axis.
func (r *Report) writeNodeSection(b *strings.Builder, xmin, xmax float64) {
	if len(r.Snaps) == 0 || len(r.Snaps[0].Nodes) == 0 {
		return
	}
	n := len(r.Snaps[0].Nodes)
	b.WriteString("<section>\n<h2>Per-node utilization</h2>\n")
	legend(b, []series{
		{name: "CPU util", colorVar: "--series-1"},
		{name: "Map slots", colorVar: "--series-2"},
	})
	b.WriteString(`<div class="multiples">`)
	for i := 0; i < n; i++ {
		cpu := series{name: "CPU util", colorVar: "--series-1"}
		slot := series{name: "Map slots", colorVar: "--series-2"}
		for _, s := range r.Snaps {
			if i < len(s.Nodes) {
				cpu.pts = append(cpu.pts, point{s.Time, s.Nodes[i].CPUUtilPct})
				slot.pts = append(slot.pts, point{s.Time, s.Nodes[i].MapSlotPct})
			}
		}
		fmt.Fprintf(b, `<figure><figcaption>node %d</figcaption>`, i)
		writeLineChart(b, []series{cpu, slot}, nil,
			chartGeom{w: 300, h: 120, left: 34, right: 8, top: 6, bottom: 20, xmin: xmin, xmax: xmax, ymax: 100}, "")
		b.WriteString(`</figure>`)
	}
	b.WriteString("</div>\n</section>\n")
}

// writeGanttSection renders the slot-occupancy Gantt: one lane per
// slot, map attempts in slot order, reduce attempts below them, with
// outcome-coded bars and decision markers.
func (r *Report) writeGanttSection(b *strings.Builder, xmin, xmax float64, markers []marker) {
	if len(r.Gantt.Bars) == 0 {
		return
	}
	b.WriteString("<section>\n<h2>Slot occupancy</h2>\n")
	if r.Dropped > 0 {
		fmt.Fprintf(b, "<p class=\"note\">⚠ %d spans were evicted from the trace ring; the oldest attempts are missing from this chart.</p>\n", r.Dropped)
	}
	crit := r.criticalBars()
	b.WriteString(`<div class="legend">` +
		`<span class="key"><span class="swatch" style="background:var(--series-1)"></span>map attempt</span>` +
		`<span class="key"><span class="swatch" style="background:var(--series-2)"></span>reduce attempt</span>` +
		`<span class="key"><span class="swatch" style="background:var(--status-critical)"></span>failed</span>` +
		`<span class="key"><span class="swatch" style="background:var(--status-serious)"></span>killed</span>`)
	if len(crit) > 0 {
		b.WriteString(`<span class="key"><span class="swatch crit" style="background:transparent"></span>on a critical path</span>`)
	}
	b.WriteString("</div>\n")

	const laneH, nodeGap, top, bottom, left, right, width = 8.0, 10.0, 8.0, 26.0, 52.0, 16.0, 920.0
	// Node order and lane offsets.
	nodes := make([]int, 0, len(r.Gantt.Lanes))
	for n := range r.Gantt.Lanes {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	offset := map[int]float64{}
	y := top
	for _, n := range nodes {
		offset[n] = y
		y += float64(r.Gantt.Lanes[n])*laneH + nodeGap
	}
	height := y - nodeGap + bottom
	g := chartGeom{w: width, h: height, left: left, right: right, top: top, bottom: bottom, xmin: xmin, xmax: xmax, ymax: 1}

	fmt.Fprintf(b, `<svg viewBox="0 0 %g %g" role="img" preserveAspectRatio="xMidYMid meet">`, width, height)
	writeTimeAxis(b, g)
	writeMarkers(b, markers, g)
	for _, n := range nodes {
		fmt.Fprintf(b, `<text x="%g" y="%g" class="tick" text-anchor="end">n%d</text>`,
			left-6, offset[n]+float64(r.Gantt.Lanes[n])*laneH/2+3, n)
	}
	const maxBars = 20000
	bars := r.Gantt.Bars
	truncated := false
	if len(bars) > maxBars {
		bars, truncated = bars[:maxBars], true
	}
	for _, bar := range bars {
		x0, x1 := g.px(bar.Start), g.px(bar.End)
		if x1-x0 < 0.75 {
			x1 = x0 + 0.75
		}
		fill := "var(--series-1)"
		if bar.Kind == "reduce" {
			fill = "var(--series-2)"
		}
		switch bar.Outcome {
		case trace.OutcomeFailed:
			fill = "var(--status-critical)"
		case trace.OutcomeKilled:
			fill = "var(--status-serious)"
		}
		opacity := ""
		if bar.Speculative {
			opacity = ` fill-opacity="0.55"`
		}
		spec := ""
		if bar.Speculative {
			spec = " (speculative)"
		}
		outcome := bar.Outcome
		if outcome == "" {
			outcome = "ok"
		}
		onPath, pathNote := "", ""
		if crit[critKey{job: bar.Job, task: bar.Task, attempt: bar.Attempt, kind: bar.Kind}] {
			onPath, pathNote = ` class="crit"`, " — on the critical path"
		}
		fmt.Fprintf(b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%g" rx="1.5" fill="%s"%s%s><title>%s job %d task %d attempt %d%s [%s] %s–%ss%s</title></rect>`,
			x0, offset[bar.Node]+float64(bar.Lane)*laneH+1, x1-x0, laneH-2, fill, opacity, onPath,
			bar.Kind, bar.Job, bar.Task, bar.Attempt, spec, outcome, fnum(bar.Start), fnum(bar.End), pathNote)
	}
	b.WriteString("</svg>\n")
	if truncated {
		fmt.Fprintf(b, "<p class=\"note\">Showing the first %d of %d attempts.</p>\n", maxBars, len(r.Gantt.Bars))
	}
	b.WriteString("</section>\n")
}

// writeQuerySection renders the per-query registry detail: the rolling
// per-policy latency summary, the queries still running, and one row
// per finished query with its lifecycle and phase-time attribution.
func (r *Report) writeQuerySection(b *strings.Builder) {
	d := r.Queries
	if d == nil || len(d.Policies)+len(d.InFlight)+len(d.Queries) == 0 {
		return
	}
	b.WriteString("<section>\n<h2>Per-query stats</h2>\n")
	if len(d.Policies) > 0 {
		b.WriteString("<h3>Rolling per-policy latency (virtual seconds; wall milliseconds)</h3>\n<table>\n<thead><tr>" +
			"<th>policy</th><th>finished</th><th>failed</th><th>qps</th><th>p50</th><th>p90</th><th>p99</th><th>max</th>" +
			"<th>wall p50</th><th>wall p99</th></tr></thead>\n<tbody>\n")
		for _, p := range d.Policies {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				esc(p.Policy), p.Finished, p.Failed, fnum(p.QPS),
				fnum(p.VirtualP50S), fnum(p.VirtualP90S), fnum(p.VirtualP99S), fnum(p.VirtualMaxS),
				fnum(p.WallP50S*1000), fnum(p.WallP99S*1000))
		}
		b.WriteString("</tbody>\n</table>\n")
	}
	if len(d.InFlight) > 0 {
		b.WriteString("<h3>In flight</h3>\n<table>\n<thead><tr>" +
			"<th>id</th><th>job</th><th>policy</th><th>k</th><th>matches</th><th>splits</th><th>records</th>" +
			"<th>age (s)</th><th>query</th></tr></thead>\n<tbody>\n")
		for _, q := range d.InFlight {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%d</td><td>%d</td><td>%d/%d</td><td>%d</td><td>%s</td><td>%s</td></tr>\n",
				esc(q.ID), q.JobID, esc(q.Policy), q.K, q.Matches, q.SplitsScanned, q.SplitsTotal, q.RecordsRead,
				fnum(d.VirtualTimeS-q.SubmitVT), esc(clip(q.SQL, 60)))
		}
		b.WriteString("</tbody>\n</table>\n")
	}
	if len(d.Queries) > 0 {
		const maxQueryRows = 200
		qs := d.Queries
		if len(qs) > maxQueryRows {
			qs = qs[len(qs)-maxQueryRows:]
		}
		b.WriteString("<h3>Finished queries</h3>\n<table>\n<thead><tr>" +
			"<th>id</th><th>state</th><th>policy</th><th>k</th><th>latency (s)</th><th>first match (s)</th>" +
			"<th>limit hit (s)</th><th>rows</th><th>overshoot</th><th>splits</th><th>records</th>" +
			"<th>map s</th><th>shuffle s</th><th>reduce s</th><th>query</th></tr></thead>\n<tbody>\n")
		for _, q := range qs {
			fm, lh := "—", "—"
			if q.FirstMatchVT >= 0 {
				fm = fnum(q.FirstMatchVT - q.SubmitVT)
			}
			if q.LimitHitVT >= 0 {
				lh = fnum(q.LimitHitVT - q.SubmitVT)
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td>"+
				"<td>%d</td><td>%d</td><td>%d/%d</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				esc(q.ID), esc(q.State), esc(q.Policy), q.K, fnum(q.LatencyVirtualS), fm, lh,
				q.Rows, q.OvershootRows, q.SplitsScanned, q.SplitsTotal, q.RecordsRead,
				fnum(q.MapSeconds), fnum(q.ShuffleSeconds), fnum(q.ReduceSeconds), esc(clip(q.SQL, 60)))
		}
		b.WriteString("</tbody>\n</table>\n")
		if len(qs) < len(d.Queries) {
			fmt.Fprintf(b, "<p class=\"note\">Showing the last %d of %d queries; the full set is in the qstats JSON dump.</p>\n", len(qs), len(d.Queries))
		}
	}
	b.WriteString("</section>\n")
}

// writeAlertSection renders the alert layer's snapshot: the firing
// set, then every firing/resolved transition, then the configured
// rules.
func (r *Report) writeAlertSection(b *strings.Builder) {
	a := r.Alerts
	if a == nil || (len(a.Rules) == 0 && len(a.Events) == 0) {
		return
	}
	b.WriteString("<section>\n<h2>Alerts</h2>\n")
	if len(a.Active) > 0 {
		fmt.Fprintf(b, "<p class=\"note\">⚠ %d alert(s) firing at %ss.</p>\n", len(a.Active), fnum(a.VirtualTimeS))
		b.WriteString("<table>\n<thead><tr><th>rule</th><th>since (s)</th><th>value</th><th>threshold</th><th>severity</th></tr></thead>\n<tbody>\n")
		for _, al := range a.Active {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				esc(al.Rule), fnum(al.SinceS), fnum(al.Value), fnum(al.Threshold), esc(al.Severity))
		}
		b.WriteString("</tbody>\n</table>\n")
	}
	if len(a.Events) > 0 {
		if a.Dropped > 0 {
			fmt.Fprintf(b, "<p class=\"note\">⚠ %d older alert events were dropped from the log.</p>\n", a.Dropped)
		}
		b.WriteString("<h3>Transitions</h3>\n<table>\n<thead><tr><th>t (s)</th><th>rule</th><th>state</th><th>value</th><th>threshold</th><th>severity</th><th>message</th></tr></thead>\n<tbody>\n")
		for _, e := range a.Events {
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				fnum(e.TimeS), esc(e.Rule), esc(e.State), fnum(e.Value), fnum(e.Threshold), esc(e.Severity), esc(e.Message))
		}
		b.WriteString("</tbody>\n</table>\n")
	}
	if len(a.Rules) > 0 {
		b.WriteString("<h3>Configured rules</h3>\n<table>\n<thead><tr><th>name</th><th>kind</th><th>series / objective</th><th>condition</th><th>window (s)</th><th>for (s)</th><th>severity</th></tr></thead>\n<tbody>\n")
		for _, rule := range a.Rules {
			target := rule.Series
			cond := fmt.Sprintf("%s %s", ruleOp(rule), fnum(rule.Value))
			if rule.Kind == tsdb.KindSLOBurn {
				target = fmt.Sprintf("latency ≤ %ss", fnum(rule.ObjectiveS))
				if rule.Policy != "" {
					target += " (" + rule.Policy + ")"
				}
				cond = fmt.Sprintf("burn %s %s%%", ruleOp(rule), fnum(rule.MaxBurnPct))
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
				esc(rule.Name), esc(rule.Kind), esc(target), esc(cond), fnum(rule.WindowS), fnum(rule.ForS), esc(rule.Severity))
		}
		b.WriteString("</tbody>\n</table>\n")
	}
	b.WriteString("</section>\n")
}

// ruleOp mirrors the rule's operator default for display.
func ruleOp(r tsdb.Rule) string {
	if r.Op == "" {
		return ">"
	}
	return r.Op
}

// writePolicyTable summarises the Input Provider per policy, folded
// from the decision log.
func (r *Report) writePolicyTable(b *strings.Builder) {
	var fold policyFold
	for _, d := range r.Decisions {
		fold.add(d)
	}
	policies := fold.states()
	if len(policies) == 0 {
		return
	}
	b.WriteString("<section>\n<h2>Input Provider state</h2>\n<table>\n<thead><tr>" +
		"<th>policy</th><th>evaluations</th><th>splits granted</th><th>last verdict</th>" +
		"<th>grab limit</th><th>work threshold</th><th>headroom</th></tr></thead>\n<tbody>\n")
	for _, p := range policies {
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%s</td><td>%d</td><td>%s%%</td><td>%s%%</td></tr>\n",
			esc(p.Policy), p.Evaluations, p.SplitsGranted, esc(p.LastVerdict), p.GrabLimit,
			fnum(p.WorkThresholdPct), fnum(p.HeadroomPct))
	}
	b.WriteString("</tbody>\n</table>\n</section>\n")
}

// writeDataTable is the accessibility table view of the cluster
// series; total is the series length before striding.
func (r *Report) writeDataTable(b *strings.Builder, total int) {
	if len(r.Snaps) == 0 {
		return
	}
	summary := "Data table (cluster samples)"
	if total > len(r.Snaps) {
		summary = fmt.Sprintf("Data table (%d of %d cluster samples — strided; the archive carries the full series)",
			len(r.Snaps), total)
	}
	b.WriteString("<details>\n<summary>" + esc(summary) + "</summary>\n<table>\n<thead><tr>" +
		"<th>t (s)</th><th>CPU %</th><th>disk KB/s</th><th>net %</th><th>map slots %</th>" +
		"<th>reduce slots %</th><th>queued maps</th><th>queued reduces</th><th>jobs</th></tr></thead>\n<tbody>\n")
	for _, s := range r.Snaps {
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
			fnum(s.Time), fnum(s.CPUUtilPct), fnum(s.DiskReadKBs), fnum(s.NetworkUtilPct),
			fnum(s.MapSlotPct), fnum(s.ReduceSlotPct), s.QueuedMaps, s.QueuedReduces, s.RunningJobs)
	}
	b.WriteString("</tbody>\n</table>\n</details>\n")
}

func (r *Report) writeCounters(b *strings.Builder) {
	if len(r.Counters) == 0 {
		return
	}
	names := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		names = append(names, k)
	}
	slices.Sort(names)
	b.WriteString("<details>\n<summary>Counters</summary>\n<table>\n<tbody>\n")
	for _, k := range names {
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td></tr>\n", esc(k), r.Counters[k])
	}
	b.WriteString("</tbody>\n</table>\n</details>\n")
}

// reportCSS carries the palette as CSS custom properties: light values
// on .viz-root, dark values under both the OS media query and an
// explicit data-theme toggle scope.
const reportCSS = `<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --series-4: #eda100;
  --series-5: #e87ba4;
  --series-6: #008300;
  --series-7: #4a3aa7;
  --series-8: #e34948;
  --status-serious: #ec835a;
  --status-critical: #d03b3b;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--text-primary);
  background: var(--page);
  margin: 0 auto;
  padding: 24px;
  max-width: 980px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --series-4: #c98500;
    --series-5: #d55181;
    --series-6: #008300;
    --series-7: #9085e9;
    --series-8: #e66767;
    --status-serious: #ec835a;
    --status-critical: #d03b3b;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --grid: #2c2c2a;
  --baseline: #383835;
  --series-1: #3987e5;
  --series-2: #d95926;
  --series-3: #199e70;
  --series-4: #c98500;
  --series-5: #d55181;
  --series-6: #008300;
  --series-7: #9085e9;
  --series-8: #e66767;
  --status-serious: #ec835a;
  --status-critical: #d03b3b;
}
body { margin: 0; background: var(--page); }
.viz-root h1 { font-size: 20px; margin: 0 0 8px; }
.viz-root h2 { font-size: 16px; margin: 24px 0 4px; }
.viz-root h3 { font-size: 13px; color: var(--text-secondary); margin: 14px 0 4px; font-weight: 600; }
.viz-root .note { color: var(--text-secondary); font-size: 12.5px; margin: 2px 0 8px; }
.viz-root section { background: var(--surface-1); border: 1px solid var(--grid); border-radius: 8px; padding: 12px 16px 16px; margin: 14px 0; }
.viz-root svg { display: block; width: 100%; height: auto; }
.viz-root .grid { stroke: var(--grid); stroke-width: 1; }
.viz-root .baseline { stroke: var(--baseline); stroke-width: 1; }
.viz-root .tick { fill: var(--text-muted); font-size: 10px; font-variant-numeric: tabular-nums; }
.viz-root .mark-grow { stroke: var(--text-muted); stroke-width: 1; stroke-dasharray: 2 3; }
.viz-root .mark-eoi { stroke: var(--text-secondary); stroke-width: 1.5; }
.viz-root .mark-alert { stroke: var(--status-critical); stroke-width: 1.5; stroke-dasharray: 4 3; }
.viz-root .legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 6px 0; }
.viz-root .key { display: inline-flex; align-items: center; gap: 6px; color: var(--text-secondary); font-size: 12.5px; }
.viz-root .swatch { width: 10px; height: 10px; border-radius: 3px; display: inline-block; }
.viz-root .params { display: flex; flex-wrap: wrap; gap: 6px 22px; margin: 0 0 6px; }
.viz-root .params div { display: flex; gap: 6px; }
.viz-root .params dt { color: var(--text-muted); }
.viz-root .params dd { margin: 0; color: var(--text-secondary); font-variant-numeric: tabular-nums; }
.viz-root .multiples { display: grid; grid-template-columns: repeat(auto-fill, minmax(260px, 1fr)); gap: 10px; }
.viz-root figure { margin: 0; }
.viz-root figcaption { color: var(--text-muted); font-size: 11.5px; margin-bottom: 2px; }
.viz-root table { border-collapse: collapse; font-size: 12.5px; font-variant-numeric: tabular-nums; }
.viz-root th { text-align: left; color: var(--text-secondary); font-weight: 600; }
.viz-root th, .viz-root td { padding: 3px 14px 3px 0; border-bottom: 1px solid var(--grid); }
.viz-root details { margin: 12px 0; color: var(--text-secondary); }
.viz-root summary { cursor: pointer; }
.viz-root .crit { stroke: var(--text-primary); stroke-width: 1.2; }
.viz-root span.swatch.crit { border: 1.2px solid var(--text-primary); box-sizing: border-box; }
.viz-root .diag-row { display: flex; align-items: center; gap: 10px; margin: 4px 0; }
.viz-root .diag-label { flex: 0 0 190px; color: var(--text-secondary); font-size: 12.5px; font-variant-numeric: tabular-nums; overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
.viz-root .track { flex: 1; }
.viz-root .stack { display: flex; height: 16px; border-radius: 3px; overflow: hidden; background: var(--grid); }
.viz-root .stack span { display: block; height: 100%; }
.viz-root .pos { color: var(--status-critical); }
.viz-root .neg { color: var(--series-3); }
.viz-root a { color: var(--series-1); }
</style>
`
