package diag

import (
	"fmt"
	"math"

	"dynamicmr/internal/trace"
)

// jobAnomalies runs the per-job detectors: map-attempt stragglers and
// speculative-kill waste.
func jobAnomalies(j *JobTrace) []Anomaly {
	var out []Anomaly
	if n := len(j.okMaps); n >= stragglerMinAttempts {
		mean, sd := meanStd(j.okMaps)
		thr := mean + stragglerSigma*sd
		if sd > 0 {
			for _, s := range j.okMaps {
				if d := s.Duration(); d > thr {
					out = append(out, Anomaly{
						Kind: AnomalyStraggler, Job: j.id,
						Task: s.Task, Attempt: s.Attempt, Node: s.Node,
						Value: d, Threshold: thr,
						Detail: fmt.Sprintf("map attempt ran %.3gs vs phase mean %.3gs±%.3gs (k=%g)",
							d, mean, sd, stragglerSigma),
					})
				}
			}
		}
	}
	var waste float64
	for _, s := range j.killed {
		waste += s.Duration()
	}
	if len(j.killed) > 0 {
		out = append(out, Anomaly{
			Kind: AnomalySpeculativeWaste, Job: j.id,
			Task: -1, Attempt: 0, Node: -1,
			Value: waste,
			Detail: fmt.Sprintf("%d killed attempt(s) burned %.3gs of slot time",
				len(j.killed), waste),
		})
	}
	return out
}

// clusterAnomalies inspects cluster-wide counters: a high
// map.scan_stalls / map.scan_async ratio means the async scan
// executor keeps blocking the simulation thread (undersized pool or
// scan-bound workload).
func clusterAnomalies(counters map[string]int64) []Anomaly {
	stalls := counters[trace.CounterScanStalls.String()]
	async := counters[trace.CounterScanAsync.String()]
	if async <= 0 || stalls <= 0 {
		return nil
	}
	ratio := float64(stalls) / float64(async)
	if ratio < scanStallRatio {
		return nil
	}
	return []Anomaly{{
		Kind: AnomalyScanStalls, Job: -1, Task: -1, Attempt: 0, Node: -1,
		Value: ratio, Threshold: scanStallRatio,
		Detail: fmt.Sprintf("%d of %d async scans stalled the simulation thread; consider more -scan-workers",
			stalls, async),
	}}
}

func meanStd(spans []trace.Span) (mean, sd float64) {
	n := float64(len(spans))
	if n == 0 {
		return 0, 0
	}
	for _, s := range spans {
		mean += s.Duration()
	}
	mean /= n
	var varSum float64
	for _, s := range spans {
		d := s.Duration() - mean
		varSum += d * d
	}
	return mean, math.Sqrt(varSum / n)
}
