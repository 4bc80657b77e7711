package experiments

import "dynamicmr/internal/trace"

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
