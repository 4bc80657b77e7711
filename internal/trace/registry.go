package trace

import (
	"math"
)

// Counter names one of the runtime's registry counters. Each has a
// fixed slot in the registry, so an increment is an array write; its
// String is the counter's name in Counters, archives, /metrics and
// tsdb series.
type Counter uint8

// The counters the runtime emits.
const (
	CounterHeartbeats Counter = iota
	CounterJobsSubmitted
	CounterJobsFinished
	CounterMapAttempts
	CounterMapFailed
	CounterMapKilled
	CounterMapSpeculative
	CounterMapLocal
	CounterMapNonLocal
	CounterPolicyEvals
	// CounterScanAsync counts map attempts whose record scan was joined
	// from the scan executor; CounterScanStalls counts the subset whose
	// join actually blocked on real compute (real time slower than
	// simulated time).
	CounterScanAsync
	CounterScanStalls
	// CounterScanBlocksRead / CounterScanBlocksSkipped count statistics
	// sub-blocks map attempts read vs. skipped via the zone map (the
	// skip/index input paths); under the full path nothing is skipped.
	CounterScanBlocksRead
	CounterScanBlocksSkipped
	// Map-output memo metrics (internal/mapreduce.MapOutputCache):
	// memo_hits/memo_misses surface the memo cache's Stats() per
	// runtime: one increment per lookup, from either the scan-executor
	// submit path or the inline execMapper path.
	CounterMemoHits
	CounterMemoMisses

	// NumCounters is the number of counter slots.
	NumCounters
)

var counterNames = [NumCounters]string{
	CounterHeartbeats:        "heartbeats",
	CounterJobsSubmitted:     "jobs.submitted",
	CounterJobsFinished:      "jobs.finished",
	CounterMapAttempts:       "map.attempts",
	CounterMapFailed:         "map.failed",
	CounterMapKilled:         "map.killed",
	CounterMapSpeculative:    "map.speculative",
	CounterMapLocal:          "map.local",
	CounterMapNonLocal:       "map.nonlocal",
	CounterPolicyEvals:       "policy.evaluations",
	CounterScanAsync:         "map.scan_async",
	CounterScanStalls:        "map.scan_stalls",
	CounterScanBlocksRead:    "scan.blocks_read",
	CounterScanBlocksSkipped: "scan.blocks_skipped",
	CounterMemoHits:          "engine.memo_hits",
	CounterMemoMisses:        "engine.memo_misses",
}

// String returns the counter's registry name.
func (c Counter) String() string { return counterNames[c] }

// Hist names one of the runtime's registry histograms, each in a fixed
// slot like a Counter.
type Hist uint8

// The histograms the runtime emits.
const (
	HistMapDuration Hist = iota
	HistMapQueueWait
	HistReduceDuration

	numHists
)

var histNames = [numHists]string{
	HistMapDuration:    "map.duration_s",
	HistMapQueueWait:   "map.queue_wait_s",
	HistReduceDuration: "reduce.duration_s",
}

// String returns the histogram's registry name.
func (h Hist) String() string { return histNames[h] }

// HistogramSnapshot summarises one histogram's observations.
type HistogramSnapshot struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// registry is the counter/histogram store behind a Tracer. touched
// marks the counters ever incremented, a zero delta included: only
// those are listed, as a name-keyed map would list them. A histogram is
// listed once its Count is non-zero.
type registry struct {
	counters [NumCounters]int64
	touched  [NumCounters]bool
	hists    [numHists]HistogramSnapshot
}

func newRegistry() registry {
	var r registry
	for i := range r.hists {
		r.hists[i] = HistogramSnapshot{Min: math.Inf(1), Max: math.Inf(-1)}
	}
	return r
}

// Inc adds delta to the counter.
func (t *Tracer) Inc(c Counter, delta int64) {
	if t == nil {
		return
	}
	t.reg.counters[c] += delta
	t.reg.touched[c] = true
}

// Counter returns the counter's value (0 when never incremented).
func (t *Tracer) Counter(c Counter) int64 {
	if t == nil {
		return 0
	}
	return t.reg.counters[c]
}

// EachCounter calls fn with every counter ever incremented and its
// value, in slot order. It builds nothing, so a periodic reader (the
// tsdb tick) walks the registry without allocating.
func (t *Tracer) EachCounter(fn func(c Counter, v int64)) {
	if t == nil {
		return
	}
	for c, v := range t.reg.counters {
		if t.reg.touched[c] {
			fn(Counter(c), v)
		}
	}
}

// Counters returns every counter ever incremented, by name.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]int64, NumCounters)
	t.EachCounter(func(c Counter, v int64) { out[c.String()] = v })
	return out
}

// Observe folds a value into the histogram.
func (t *Tracer) Observe(h Hist, v float64) {
	if t == nil {
		return
	}
	s := &t.reg.hists[h]
	s.Count++
	s.Sum += v
	if v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
}

// Histogram returns the histogram's snapshot and whether any value was
// ever observed.
func (t *Tracer) Histogram(h Hist) (HistogramSnapshot, bool) {
	if t == nil || t.reg.hists[h].Count == 0 {
		return HistogramSnapshot{}, false
	}
	return t.reg.hists[h], true
}
