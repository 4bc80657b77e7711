package obs

import (
	"fmt"
	"html"
	"net/http"
	"strings"

	"dynamicmr/internal/tsdb"
)

// handleLive serves the self-refreshing HTML dashboard: cluster
// utilisation sparklines over the recent snapshot window, the
// per-policy latency/QPS table, the in-flight query table, and the
// most recently finished queries, all from the published snapshot.
func (s *Server) handleLive(w http.ResponseWriter, _ *http.Request) {
	p := s.publishedState()
	dump, vt, recent := p.dump, p.vt, p.recent
	scan, trends, alerts := p.scan, p.trends, p.alerts

	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>dynmr live</title>
<style>
body { font-family: ui-monospace, Menlo, Consolas, monospace; background: #101418; color: #d8dee9; margin: 1.2em; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 1.4em; color: #88c0d0; }
table { border-collapse: collapse; margin-top: .4em; }
th, td { border: 1px solid #2e3440; padding: .25em .6em; text-align: right; font-size: .85em; }
th { background: #1b2128; color: #8fbcbb; } td:first-child, th:first-child { text-align: left; }
.spark { display: inline-block; margin-right: 2em; }
.spark svg { background: #151a20; border: 1px solid #2e3440; }
.cap { color: #616e7c; font-size: .8em; }
.ok { color: #a3be8c; } .running { color: #ebcb8b; } .failed, .abandoned { color: #bf616a; }
.alerts { background: #3b2226; border: 1px solid #bf616a; padding: .5em .8em; margin: .6em 0; }
.alerts b { color: #bf616a; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>dynmr live &mdash; t=%.1fs virtual, %d started / %d finished / %d failed</h1>\n",
		vt, dump.Started, dump.Finished, dump.Failed)

	if len(alerts.Active) > 0 {
		b.WriteString(`<div class="alerts"><b>⚠ ` + fmt.Sprint(len(alerts.Active)) + ` alert(s) firing</b>: `)
		for i, a := range alerts.Active {
			if i > 0 {
				b.WriteString(" &middot; ")
			}
			fmt.Fprintf(&b, "%s (%.4g vs %.4g", html.EscapeString(a.Rule), a.Value, a.Threshold)
			if a.Severity != "" {
				fmt.Fprintf(&b, ", %s", html.EscapeString(a.Severity))
			}
			fmt.Fprintf(&b, ", since t=%.1fs)", a.SinceS)
		}
		b.WriteString("</div>\n")
	}

	b.WriteString("<div>")
	writeSparkline(&b, "cluster CPU %", recent, func(sn Snapshot) float64 { return sn.CPUUtilPct }, 100)
	writeSparkline(&b, "map slot %", recent, func(sn Snapshot) float64 { return sn.MapSlotPct }, 100)
	writeSparkline(&b, "disk KB/s", recent, func(sn Snapshot) float64 { return sn.DiskReadKBs }, 0)
	b.WriteString("</div>\n")

	writeTrendPanels(&b, trends)

	if scan != nil {
		b.WriteString("<h2>Input path</h2>\n<table><tr><th>mode</th><th>blocks read</th><th>blocks skipped</th><th>skipped %</th></tr>\n")
		pct := 0.0
		if total := scan.BlocksRead + scan.BlocksSkipped; total > 0 {
			pct = float64(scan.BlocksSkipped) / float64(total) * 100
		}
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%.1f%%</td></tr>\n",
			html.EscapeString(scan.InputPath), scan.BlocksRead, scan.BlocksSkipped, pct)
		b.WriteString("</table>\n")
	}

	b.WriteString("<h2>Per-policy latency (rolling)</h2>\n<table><tr><th>policy</th><th>finished</th><th>failed</th><th>qps</th><th>virt p50</th><th>virt p90</th><th>virt p99</th><th>virt max</th><th>wall p50</th><th>wall p99</th></tr>\n")
	for _, p := range dump.Policies {
		fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%.2f</td><td>%.3f</td><td>%.3f</td><td>%.3f</td><td>%.3f</td><td>%.3f</td><td>%.3f</td></tr>\n",
			html.EscapeString(p.Policy), p.Finished, p.Failed, p.QPS,
			p.VirtualP50S, p.VirtualP90S, p.VirtualP99S, p.VirtualMaxS,
			p.WallP50S, p.WallP99S)
	}
	b.WriteString("</table>\n")

	b.WriteString("<h2>In flight</h2>\n")
	if len(dump.InFlight) == 0 {
		b.WriteString(`<p class="cap">none</p>` + "\n")
	} else {
		b.WriteString("<table><tr><th>id</th><th>job</th><th>policy</th><th>k</th><th>matches</th><th>splits</th><th>records</th><th>age (vt s)</th><th>query</th></tr>\n")
		for _, q := range dump.InFlight {
			fmt.Fprintf(&b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%d</td><td>%d</td><td>%d/%d</td><td>%d</td><td>%.2f</td><td>%s</td></tr>\n",
				html.EscapeString(q.ID), q.JobID, html.EscapeString(q.Policy), q.K, q.Matches,
				q.SplitsScanned, q.SplitsTotal, q.RecordsRead, vt-q.SubmitVT, html.EscapeString(clip(q.SQL, 60)))
		}
		b.WriteString("</table>\n")
	}

	b.WriteString("<h2>Recently finished</h2>\n<table><tr><th>id</th><th>state</th><th>policy</th><th>latency (vt s)</th><th>rows</th><th>overshoot</th><th>splits</th><th>records</th><th>map s</th><th>shuffle s</th><th>reduce s</th><th>query</th></tr>\n")
	const liveFinishedRows = 25
	start := len(dump.Queries) - liveFinishedRows
	if start < 0 {
		start = 0
	}
	for i := len(dump.Queries) - 1; i >= start; i-- {
		q := dump.Queries[i]
		fmt.Fprintf(&b, `<tr><td><a href="/queries?id=%s" style="color:inherit">%s</a></td><td class=%q>%s</td><td>%s</td><td>%.3f</td><td>%d</td><td>%d</td><td>%d/%d</td><td>%d</td><td>%.2f</td><td>%.2f</td><td>%.2f</td><td>%s</td></tr>`+"\n",
			html.EscapeString(q.ID), html.EscapeString(q.ID), q.State, q.State, html.EscapeString(q.Policy),
			q.LatencyVirtualS, q.Rows, q.OvershootRows, q.SplitsScanned, q.SplitsTotal, q.RecordsRead,
			q.MapSeconds, q.ShuffleSeconds, q.ReduceSeconds, html.EscapeString(clip(q.SQL, 60)))
	}
	b.WriteString("</table>\n")
	if len(alerts.Events) > 0 {
		b.WriteString("<h2>Recent alert events</h2>\n<table><tr><th>t (vt s)</th><th>rule</th><th>state</th><th>value</th><th>threshold</th><th>severity</th></tr>\n")
		const liveAlertRows = 15
		start := len(alerts.Events) - liveAlertRows
		if start < 0 {
			start = 0
		}
		for i := len(alerts.Events) - 1; i >= start; i-- {
			e := alerts.Events[i]
			cls := "ok"
			if e.State == tsdb.StateFiring {
				cls = "failed"
			}
			fmt.Fprintf(&b, "<tr><td>%.1f</td><td>%s</td><td class=%q>%s</td><td>%.4g</td><td>%.4g</td><td>%s</td></tr>\n",
				e.TimeS, html.EscapeString(e.Rule), cls, e.State, e.Value, e.Threshold, html.EscapeString(e.Severity))
		}
		b.WriteString("</table>\n")
	}

	fmt.Fprintf(&b, `<p class="cap">schema %s &middot; auto-refreshes every 2s &middot; <a href="/queries" style="color:#81a1c1">/queries</a> <a href="/metrics" style="color:#81a1c1">/metrics</a> <a href="/status" style="color:#81a1c1">/status</a> <a href="/tsdb" style="color:#81a1c1">/tsdb</a> <a href="/alerts" style="color:#81a1c1">/alerts</a></p>`+"\n", html.EscapeString(dump.Schema))
	b.WriteString("</body></html>\n")

	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// liveTrendSeries are the time-series-engine histories /live charts
// when the engine is attached; absent series are skipped silently.
var liveTrendSeries = []struct {
	name  string
	label string
}{
	{"query.in_flight", "queries in flight"},
	{"query.match_rate", "match rate /s"},
	{"query.overshoot_ratio", "overshoot ratio"},
	{"query.split_cost_s", "split cost s"},
	{"cluster.running_jobs", "running jobs"},
	{"scan.blocks_read", "blocks read"},
	{"scan.blocks_skipped", "blocks skipped"},
}

// writeTrendPanels renders the tsdb-backed sparkline history panels:
// one per known series present in the dump (raw ring, full retained
// window).
func writeTrendPanels(b *strings.Builder, trends tsdb.Dump) {
	byName := make(map[string][]tsdb.Point, len(trends.Series))
	for _, sd := range trends.Series {
		byName[sd.Name] = sd.Points
	}
	wrote := false
	for _, ts := range liveTrendSeries {
		pts := byName[ts.name]
		if len(pts) < 2 {
			continue
		}
		if !wrote {
			b.WriteString("<h2>Trends (time-series engine)</h2>\n<div>")
			wrote = true
		}
		writeTrendSpark(b, ts.label, pts)
	}
	if wrote {
		b.WriteString("</div>\n")
	}
}

// writeTrendSpark renders one labelled sparkline over tsdb raw points,
// auto-scaled to the window's maximum.
func writeTrendSpark(b *strings.Builder, label string, pts []tsdb.Point) {
	const w, h = 220, 48
	fmt.Fprintf(b, `<span class="spark">%s<br><svg width="%d" height="%d">`, html.EscapeString(label), w, h)
	ceil := 0.0
	for _, p := range pts {
		if p.V > ceil {
			ceil = p.V
		}
	}
	if ceil <= 0 {
		ceil = 1
	}
	var poly strings.Builder
	for i, p := range pts {
		x := float64(i) / float64(len(pts)-1) * (w - 2)
		v := p.V / ceil
		if v < 0 {
			v = 0
		}
		y := (h - 2) * (1 - v)
		fmt.Fprintf(&poly, "%.1f,%.1f ", x+1, y+1)
	}
	fmt.Fprintf(b, `<polyline points=%q fill="none" stroke="#b48ead" stroke-width="1.5"/>`, strings.TrimSpace(poly.String()))
	fmt.Fprintf(b, `<text x="4" y="12" fill="#616e7c" font-size="9">%.4g</text>`, ceil)
	b.WriteString(`</svg></span>`)
}

// writeSparkline renders one labelled SVG polyline over the snapshot
// window. maxY fixes the axis ceiling; 0 auto-scales to the data.
func writeSparkline(b *strings.Builder, label string, snaps []Snapshot, val func(Snapshot) float64, maxY float64) {
	const w, h = 220, 48
	fmt.Fprintf(b, `<span class="spark">%s<br><svg width="%d" height="%d">`, html.EscapeString(label), w, h)
	if len(snaps) >= 2 {
		ceil := maxY
		if ceil <= 0 {
			for _, sn := range snaps {
				if v := val(sn); v > ceil {
					ceil = v
				}
			}
			if ceil <= 0 {
				ceil = 1
			}
		}
		var pts strings.Builder
		for i, sn := range snaps {
			x := float64(i) / float64(len(snaps)-1) * (w - 2)
			v := val(sn) / ceil
			if v > 1 {
				v = 1
			}
			y := (h - 2) * (1 - v)
			fmt.Fprintf(&pts, "%.1f,%.1f ", x+1, y+1)
		}
		fmt.Fprintf(b, `<polyline points=%q fill="none" stroke="#88c0d0" stroke-width="1.5"/>`, strings.TrimSpace(pts.String()))
		fmt.Fprintf(b, `<text x="4" y="12" fill="#616e7c" font-size="9">%.0f</text>`, ceil)
	}
	b.WriteString(`</svg></span>`)
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
