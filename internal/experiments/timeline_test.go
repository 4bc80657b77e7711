package experiments

import (
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/trace"
)

func TestUtilizationAveragesZeroPoints(t *testing.T) {
	if cpu, disk, occ := utilizationAverages(nil, 0); cpu != 0 || disk != 0 || occ != 0 {
		t.Fatalf("averages of no points = %v, %v, %v", cpu, disk, occ)
	}
}

// firstIntervalLoaded polls an idle cluster to t=100 with one core busy
// for the first interval only, so the t=30 point is loaded and the t=60
// and t=90 points are idle.
func firstIntervalLoaded(t *testing.T) []trace.MetricSample {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	jt := mapreduce.NewJobTracker(cl, mapreduce.DefaultConfig(), nil)
	jt.SampleUtilization()
	cl.Node(0).CPU.Submit(mapreduce.UtilizationIntervalS, nil) // one core busy t=0..30
	eng.RunUntil(100)                                          // points at 30 (loaded), 60, 90
	tl := jt.UtilizationTimeline()
	if len(tl) != 3 || tl[0].Time != 30 || tl[1].Time != 60 {
		t.Fatalf("timeline = %+v", tl)
	}
	return tl
}

// TestUtilizationAveragesExcludeWarmup: the full window averages the
// loaded point in; a fromT past the load leaves only idle points.
func TestUtilizationAveragesExcludeWarmup(t *testing.T) {
	tl := firstIntervalLoaded(t)
	full, _, _ := utilizationAverages(tl, 0)
	if want := tl[0].CPUUtilPct / 3; full <= 0 || full != want {
		t.Fatalf("cpu from t=0 = %v, want %v > 0", full, want)
	}
	if late, _, _ := utilizationAverages(tl, 50); late != 0 {
		t.Fatalf("cpu from t=50 = %v, want 0 (load ended before t=50)", late)
	}
}

// TestUtilizationAveragesWarmupBoundary: fromT strictly between two
// points drops the earlier one; fromT equal to a point's time keeps it.
func TestUtilizationAveragesWarmupBoundary(t *testing.T) {
	tl := firstIntervalLoaded(t)
	full, _, _ := utilizationAverages(tl, 0)
	if at, _, _ := utilizationAverages(tl, 30); at != full {
		t.Fatalf("cpu from t=30 = %v, want %v (inclusive at the point's time)", at, full)
	}
	if mid, _, _ := utilizationAverages(tl, 45); mid != 0 {
		t.Fatalf("cpu from t=45 = %v, want 0 (only idle points remain)", mid)
	}
	if late, _, _ := utilizationAverages(tl, 91); late != 0 {
		t.Fatalf("cpu from t=91 = %v, want 0 (no points)", late)
	}
}
