package experiments

import (
	"os"
	"path/filepath"

	"dynamicmr/internal/trace"
)

// writeCellTimeline exports one workload cell's utilization timeline as
// CSV into opt.TraceDir (no-op when unset). The file carries the same
// columns the paper's §V-D monitoring reports.
func writeCellTimeline(opt Options, name string, timeline []trace.MetricSample) error {
	if opt.TraceDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(opt.TraceDir, name+".csv"))
	if err != nil {
		return err
	}
	if err := trace.WriteMetricCSV(f, timeline); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// utilizationAverages averages the timeline's readings taken at or
// after fromT (excluding warm-up): CPU %, disk KB/s and slot occupancy %.
func utilizationAverages(timeline []trace.MetricSample, fromT float64) (cpuPct, diskKBs, occupancyPct float64) {
	n := 0
	for _, m := range timeline {
		if m.Time < fromT {
			continue
		}
		cpuPct += m.CPUUtilPct
		diskKBs += m.DiskReadKBs
		occupancyPct += m.SlotOccupancyPct
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	return cpuPct / float64(n), diskKBs / float64(n), occupancyPct / float64(n)
}
