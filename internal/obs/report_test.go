package obs

import (
	"strings"
	"testing"

	"dynamicmr/internal/mapreduce"
)

func TestReportHTML(t *testing.T) {
	eng, _, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 30, 300)
	s := NewSampler(jt, Config{IntervalS: 1})
	s.Start()
	job := jt.Submit(mapreduce.JobSpec{NewMapper: nopMapper}, mapreduce.SplitsForFile(f))
	mapreduce.RunUntilDone(eng, job, 1e6)
	eng.RunUntil(eng.Now() + 2)
	tr := jt.Tracer()
	rep := &Report{Title: "test <run> & co", Params: [][2]string{{"policy", "LA"}, {"scale", "1x"}},
		Snaps: s.Cut(), Gantt: BuildGantt(tr.Spans()), Decisions: tr.PolicyDecisions(), Counters: tr.Counters()}
	var b strings.Builder
	if err := rep.WriteHTML(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"<!DOCTYPE html>",
		"</html>",
		"<svg",
		"test &lt;run&gt; &amp; co", // title escaped
		"Cluster utilization",
		"Per-node utilization",
		"Slot occupancy",
		"Data table",
		"prefers-color-scheme: dark",
		"--series-1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Error("report contains non-finite values")
	}
	// One small-multiple figure per node.
	if got := strings.Count(out, "<figcaption>"); got != 10 {
		t.Errorf("node figures = %d, want 10", got)
	}
	// Map attempts appear as Gantt bars with hover titles.
	if !strings.Contains(out, "map job 0 task 0 attempt 1") {
		t.Error("Gantt bar titles missing")
	}
}

func TestThinSnaps(t *testing.T) {
	snaps := make([]Snapshot, 2000)
	for i := range snaps {
		snaps[i].Time = float64(i)
	}
	for _, n := range []int{maxReportSamples, maxNodeSamples} {
		out := thinSnaps(snaps, n)
		if len(out) > n+1 {
			t.Fatalf("thinned to %d, cap is %d", len(out), n+1)
		}
		if out[0].Time != 0 || out[len(out)-1].Time != 1999 {
			t.Fatalf("endpoints lost: first %v last %v", out[0].Time, out[len(out)-1].Time)
		}
		if got := thinSnaps(snaps[:10], n); len(got) != 10 {
			t.Fatalf("short series thinned: %d", len(got))
		}
	}
}

// TestReportHTMLEmptyRun: a run without snapshots (an archive cut
// without a sampler) renders a complete report without the utilization
// charts.
func TestReportHTMLEmptyRun(t *testing.T) {
	var b strings.Builder
	if err := (&Report{Title: "empty"}).WriteHTML(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "</html>") {
		t.Fatal("empty-run report truncated")
	}
	for _, absent := range []string{"Cluster utilization", "Per-node utilization", "Data table"} {
		if strings.Contains(b.String(), absent) {
			t.Errorf("report without snapshots has %q", absent)
		}
	}
}

// TestReportTimeAxisStartsAtFirstInterval: a window of snapshots, as
// /live holds, fills its charts: the time axis starts where the first
// sample's interval starts, not at 0.
func TestReportTimeAxisStartsAtFirstInterval(t *testing.T) {
	snaps := make([]Snapshot, 20)
	for i := range snaps {
		snaps[i] = Snapshot{Time: float64(100 + 5*i), IntervalS: 5}
	}
	var b strings.Builder
	if err := (&Report{Title: "window", Snaps: snaps}).WriteHTML(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `text-anchor="middle">95s</text>`) ||
		strings.Contains(b.String(), `text-anchor="middle">0s</text>`) {
		t.Error("the time axis of a 100-195 s window of 5 s samples does not start at 95 s")
	}
}
