package experiments

import (
	"math"
	"path/filepath"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/core"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/runarchive"
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

// TestCellTimelineTracedTwin: a whole workload cell polls the same
// §V-D utilization series whether it runs untraced with scans inline,
// or traced with the obs sampler on (ArchiveDir set) on a scan pool. One figure-6 cell and one Fair figure-8 cell run both
// ways, and every untraced sample must equal the archive's sample
// record bit for bit, so `dynmr render timeline` of a traced sweep is
// the untraced sweep's timeline.
func TestCellTimelineTracedTwin(t *testing.T) {
	cells := []struct {
		name string
		run  func(Options, *sweepShared) ([]trace.MetricSample, error)
	}{
		{"figure6_z2_LA", func(opt Options, sh *sweepShared) ([]trace.MetricSample, error) {
			_, tl, err := figure6Cell(opt, sh, 2, core.PolicyLA)
			return tl, err
		}},
		{"figure8_frac0.5_LA", func(opt Options, sh *sweepShared) ([]trace.MetricSample, error) {
			_, tl, err := heterogeneousCell(opt, sh, true, 0.5, core.PolicyLA)
			return tl, err
		}},
	}
	bits := func(m trace.MetricSample) [4]uint64 {
		return [4]uint64{math.Float64bits(m.Time), math.Float64bits(m.CPUUtilPct),
			math.Float64bits(m.DiskReadKBs), math.Float64bits(m.SlotOccupancyPct)}
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			run := func(opt Options) []trace.MetricSample {
				sh := opt.newSweepShared()
				defer sh.close()
				tl, err := c.run(opt, sh)
				if err != nil {
					t.Fatal(err)
				}
				return tl
			}
			opt := tinyOptions()
			opt.ScanWorkers = 0
			plain := run(opt)
			opt.ArchiveDir = t.TempDir()
			opt.ScanWorkers = 2
			run(opt)
			a, err := runarchive.LoadFile(filepath.Join(opt.ArchiveDir, c.name+".archive.gz"))
			if err != nil {
				t.Fatal(err)
			}
			if len(plain) == 0 || len(a.Samples) != len(plain) {
				t.Fatalf("untraced timeline has %d samples, archive %d", len(plain), len(a.Samples))
			}
			for i := range plain {
				if bits(a.Samples[i]) != bits(plain[i]) {
					t.Fatalf("sample %d: archive %+v, untraced %+v", i, a.Samples[i], plain[i])
				}
			}
		})
	}
}
