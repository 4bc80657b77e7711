package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"strings"
	"time"

	"dynamicmr/internal/obs"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/tsdb"
)

// topFlags are dynmr top's flags.
type topFlags struct {
	addr       string
	follow     bool
	intervalMS int
}

// newTopFlags registers top's flags on fs.
func newTopFlags(fs *flag.FlagSet) *topFlags {
	tf := &topFlags{}
	fs.StringVar(&tf.addr, "addr", "127.0.0.1:8080", "address of the dynmr serve instance")
	fs.BoolVar(&tf.follow, "follow", false, "refresh continuously instead of printing once")
	fs.IntVar(&tf.intervalMS, "interval-ms", 1000, "refresh interval with -follow")
	return tf
}

// check rejects an -interval-ms below 1: -follow would re-fetch every
// endpoint in a tight loop, since time.Sleep returns at once on a
// non-positive duration.
func (tf *topFlags) check() error {
	if tf.intervalMS < 1 {
		return fmt.Errorf("-interval-ms must be at least 1, got %d", tf.intervalMS)
	}
	return nil
}

// topMain runs `dynmr top`: a text view of a running `dynmr serve`
// instance, built from its /status and /queries endpoints. One-shot by
// default; -follow redraws the screen every -interval-ms like top(1).
// A bad flag value exits 2 before anything is fetched.
func topMain(args []string) {
	fs := flag.NewFlagSet("dynmr top", flag.ExitOnError)
	tf := newTopFlags(fs)
	fs.Parse(args)
	if err := tf.check(); err != nil {
		usage(err)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	for {
		out, err := renderTop(client, tf.addr)
		if err != nil {
			fatal(err)
		}
		if tf.follow {
			// ANSI clear screen + home, like top(1).
			fmt.Print("\x1b[2J\x1b[H")
		}
		fmt.Print(out)
		if !tf.follow {
			return
		}
		time.Sleep(time.Duration(tf.intervalMS) * time.Millisecond)
	}
}

func fetchJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// renderTop formats one frame from the serve instance's endpoints.
func renderTop(client *http.Client, addr string) (string, error) {
	var status obs.StatusPayload
	if err := fetchJSON(client, "http://"+addr+"/status", &status); err != nil {
		return "", err
	}
	var dump qstats.Dump
	if err := fetchJSON(client, "http://"+addr+"/queries", &dump); err != nil {
		return "", err
	}
	// /tsdb and /alerts 404 when the serve instance predates the
	// time-series engine; the sections are simply omitted then.
	var trends tsdb.Dump
	haveTrends := fetchJSON(client, "http://"+addr+"/tsdb", &trends) == nil
	var alerts tsdb.AlertsDump
	haveAlerts := fetchJSON(client, "http://"+addr+"/alerts", &alerts) == nil

	var b strings.Builder
	fmt.Fprintf(&b, "dynmr @ %s — t=%.1fs virtual, %d events\n", addr, status.VirtualTimeS, status.ProcessedEvents)
	if haveAlerts && len(alerts.Active) > 0 {
		fmt.Fprintf(&b, "!! %d ALERT(S) FIRING:", len(alerts.Active))
		for _, a := range alerts.Active {
			fmt.Fprintf(&b, " %s (%.4g vs %.4g", a.Rule, a.Value, a.Threshold)
			if a.Severity != "" {
				fmt.Fprintf(&b, ", %s", a.Severity)
			}
			fmt.Fprintf(&b, ", since t=%.1fs)", a.SinceS)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "slots: map %d/%d, reduce %d/%d; queued %d maps %d reduces; %d running job(s)\n",
		status.MapSlotsUsed, status.MapSlots, status.ReduceSlotsUsed, status.ReduceSlots,
		status.QueuedMaps, status.QueuedReduces, status.RunningJobs)
	fmt.Fprintf(&b, "queries: %d started, %d finished, %d failed, %d in flight\n",
		dump.Started, dump.Finished, dump.Failed, len(dump.InFlight))
	if sc := status.Scan; sc != nil {
		pct := 0.0
		if total := sc.BlocksRead + sc.BlocksSkipped; total > 0 {
			pct = float64(sc.BlocksSkipped) / float64(total) * 100
		}
		fmt.Fprintf(&b, "scan: input-path %s; %d blocks read, %d skipped (%.1f%%)\n",
			sc.InputPath, sc.BlocksRead, sc.BlocksSkipped, pct)
	}
	b.WriteString("\n")

	if haveTrends {
		writeTopTrends(&b, trends)
	}

	if len(dump.Policies) > 0 {
		fmt.Fprintf(&b, "%-8s %9s %7s %7s %9s %9s %9s %9s\n",
			"POLICY", "FINISHED", "FAILED", "QPS", "P50(VT)", "P90(VT)", "P99(VT)", "MAX(VT)")
		for _, p := range dump.Policies {
			fmt.Fprintf(&b, "%-8s %9d %7d %7.2f %9.3f %9.3f %9.3f %9.3f\n",
				p.Policy, p.Finished, p.Failed, p.QPS,
				p.VirtualP50S, p.VirtualP90S, p.VirtualP99S, p.VirtualMaxS)
		}
		b.WriteString("\n")
	}

	if len(dump.InFlight) > 0 {
		fmt.Fprintf(&b, "%-10s %6s %-8s %7s %9s %9s %11s\n",
			"IN-FLIGHT", "JOB", "POLICY", "K", "MATCHES", "SPLITS", "RECORDS")
		for _, q := range dump.InFlight {
			fmt.Fprintf(&b, "%-10s %6d %-8s %7d %9d %4d/%-4d %11d\n",
				q.ID, q.JobID, q.Policy, q.K, q.Matches, q.SplitsScanned, q.SplitsTotal, q.RecordsRead)
		}
		b.WriteString("\n")
	}

	const topFinishedRows = 15
	start := len(dump.Queries) - topFinishedRows
	if start < 0 {
		start = 0
	}
	if len(dump.Queries) > 0 {
		fmt.Fprintf(&b, "%-10s %-9s %-8s %11s %6s %9s %9s %8s %8s %8s\n",
			"RECENT", "STATE", "POLICY", "LATENCY(VT)", "ROWS", "OVERSHOOT", "SPLITS", "MAP(S)", "SHUF(S)", "RED(S)")
		for i := len(dump.Queries) - 1; i >= start; i-- {
			q := dump.Queries[i]
			fmt.Fprintf(&b, "%-10s %-9s %-8s %11.3f %6d %9d %4d/%-4d %8.2f %8.2f %8.2f\n",
				q.ID, q.State, q.Policy, q.LatencyVirtualS, q.Rows, q.OvershootRows,
				q.SplitsScanned, q.SplitsTotal, q.MapSeconds, q.ShuffleSeconds, q.ReduceSeconds)
		}
	}
	return b.String(), nil
}

// topTrendSeries are the time-series histories `dynmr top` sparklines;
// absent series are skipped.
var topTrendSeries = []string{
	"query.in_flight",
	"query.match_rate",
	"query.overshoot_ratio",
	"cluster.running_jobs",
	"scan.blocks_read",
	"scan.blocks_skipped",
}

// writeTopTrends renders unicode sparklines over each known series'
// raw ring.
func writeTopTrends(b *strings.Builder, trends tsdb.Dump) {
	byName := make(map[string][]tsdb.Point, len(trends.Series))
	for _, sd := range trends.Series {
		byName[sd.Name] = sd.Points
	}
	wrote := false
	for _, name := range topTrendSeries {
		pts := byName[name]
		if len(pts) < 2 {
			continue
		}
		if !wrote {
			fmt.Fprintf(b, "%-22s %-40s %12s %12s\n", "TREND", "", "LAST", "MAX")
			wrote = true
		}
		fmt.Fprintf(b, "%-22s %-40s %12.4g %12.4g\n",
			name, sparkline(pts, 40), pts[len(pts)-1].V, sparkMax(pts))
	}
	if wrote {
		b.WriteString("\n")
	}
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

func sparkMax(pts []tsdb.Point) float64 {
	max := 0.0
	for _, p := range pts {
		if p.V > max {
			max = p.V
		}
	}
	return max
}

// sparkline folds the series' newest points into width block-character
// cells scaled to the window maximum.
func sparkline(pts []tsdb.Point, width int) string {
	if len(pts) > width {
		pts = pts[len(pts)-width:]
	}
	max := sparkMax(pts)
	if max <= 0 {
		max = 1
	}
	out := make([]rune, 0, len(pts))
	for _, p := range pts {
		v := p.V / max
		if v < 0 {
			v = 0
		}
		i := int(v * float64(len(sparkRunes)-1))
		out = append(out, sparkRunes[i])
	}
	return string(out)
}
