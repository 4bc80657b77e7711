package obs

import (
	"fmt"
	"net/http"
)

// liveFrame refreshes the /live page every 2 s and links the other
// endpoints from its footer.
var liveFrame = pageFrame{refreshS: 2, links: []string{"/queries", "/metrics", "/status", "/tsdb", "/alerts"}}

// handleLive serves the self-refreshing HTML dashboard: the run report
// of the published snapshot.
func (s *Server) handleLive(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = s.publishedState().report().writeHTML(w, liveFrame) // a failed write means the client has gone
}

// report assembles the published snapshot's run report: the recent
// snapshot window, the qstats dump, and the tsdb and alert dumps when
// an engine is attached, under the clock, query totals and input path.
func (p *published) report() *Report {
	d := p.dump
	rep := &Report{
		Title: "dynmr live",
		Params: [][2]string{
			{"virtual time", fmt.Sprintf("%.1f s", p.vt)},
			{"queries started / finished / failed", fmt.Sprintf("%d / %d / %d", d.Started, d.Finished, d.Failed)},
		},
		Snaps:   p.recent,
		Queries: &d,
	}
	if sc := p.scan; sc != nil {
		pct := 0.0
		if total := sc.BlocksRead + sc.BlocksSkipped; total > 0 {
			pct = float64(sc.BlocksSkipped) / float64(total) * 100
		}
		rep.Params = append(rep.Params, [2]string{"input path", sc.InputPath},
			[2]string{"blocks read / skipped", fmt.Sprintf("%d / %d (%.1f%% skipped)", sc.BlocksRead, sc.BlocksSkipped, pct)})
	}
	if p.trends != nil {
		rep.Series, rep.Alerts = p.trends, p.alerts
	}
	return rep
}
