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

	numCounters
)

var counterNames = [numCounters]string{
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

// Gauge names published by the obs sampler. Gauges are set once per
// sample interval, not per task, so they stay keyed by name.
const (
	GaugeCPUUtilPct      = "cluster.cpu_util_pct"
	GaugeDiskReadKBs     = "cluster.disk_read_kb_s"
	GaugeNetworkUtilPct  = "cluster.network_util_pct"
	GaugeMapSlotPct      = "cluster.map_slot_pct"
	GaugeReduceSlotPct   = "cluster.reduce_slot_pct"
	GaugeQueuedMaps      = "cluster.queued_map_tasks"
	GaugeQueuedReduces   = "cluster.queued_reduce_tasks"
	GaugeRunningJobs     = "cluster.running_jobs"
	GaugeVirtualTime     = "sim.virtual_time_s"
	GaugeProcessedEvents = "sim.processed_events"
)

// HistogramSnapshot summarises one histogram's observations.
type HistogramSnapshot struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// GaugeSnapshot summarises one gauge's history of set values: the most
// recent value plus min/max/avg aggregation over every Set since the
// tracer was created. Unlike a histogram a gauge is a point-in-time
// level (slots in use, queue depth), so Last is the primary reading and
// the aggregates describe the level's range over the run.
type GaugeSnapshot struct {
	Last  float64
	Min   float64
	Max   float64
	Sum   float64
	Count int64
}

// registry is the counter/gauge/histogram store behind a Tracer.
// touched marks the counters ever incremented, a zero delta included:
// only those are listed, as a name-keyed map would list them. A
// histogram is listed once its Count is non-zero.
type registry struct {
	counters [numCounters]int64
	touched  [numCounters]bool
	hists    [numHists]HistogramSnapshot
	gauges   map[string]*GaugeSnapshot
}

func newRegistry() registry {
	r := registry{gauges: make(map[string]*GaugeSnapshot)}
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

// Counters returns every counter ever incremented, by name.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	n := 0
	for _, ok := range t.reg.touched {
		if ok {
			n++
		}
	}
	out := make(map[string]int64, n)
	for c, v := range t.reg.counters {
		if t.reg.touched[c] {
			out[counterNames[c]] = v
		}
	}
	return out
}

// SetGauge records the named gauge's current level and folds it into
// the gauge's min/max/avg aggregates.
func (t *Tracer) SetGauge(name string, v float64) {
	if t == nil {
		return
	}
	g := t.reg.gauges[name]
	if g == nil {
		g = &GaugeSnapshot{Min: math.Inf(1), Max: math.Inf(-1)}
		t.reg.gauges[name] = g
	}
	g.Last = v
	g.Sum += v
	g.Count++
	if v < g.Min {
		g.Min = v
	}
	if v > g.Max {
		g.Max = v
	}
}

// Gauges returns a copy of every gauge snapshot.
func (t *Tracer) Gauges() map[string]GaugeSnapshot {
	if t == nil {
		return nil
	}
	out := make(map[string]GaugeSnapshot, len(t.reg.gauges))
	for k, v := range t.reg.gauges {
		out[k] = *v
	}
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
