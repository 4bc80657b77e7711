package trace

import (
	"math"
)

// Well-known registry metric names emitted by the runtime. The
// registry is open — any name may be used — but these are the ones the
// instrumentation produces and tests assert on.
const (
	CounterHeartbeats     = "heartbeats"
	CounterJobsSubmitted  = "jobs.submitted"
	CounterJobsFinished   = "jobs.finished"
	CounterMapAttempts    = "map.attempts"
	CounterMapFailed      = "map.failed"
	CounterMapKilled      = "map.killed"
	CounterMapSpeculative = "map.speculative"
	CounterMapLocal       = "map.local"
	CounterMapNonLocal    = "map.nonlocal"
	CounterPolicyEvals    = "policy.evaluations"
	// CounterScanAsync counts map attempts whose record scan was joined
	// from the scan executor; CounterScanStalls counts the subset whose
	// join actually blocked on real compute (real time slower than
	// simulated time).
	CounterScanAsync  = "map.scan_async"
	CounterScanStalls = "map.scan_stalls"
	// CounterScanBlocksRead / CounterScanBlocksSkipped count statistics
	// sub-blocks map attempts read vs. skipped via the zone map (the
	// skip/index input paths); under the full path nothing is skipped.
	CounterScanBlocksRead    = "scan.blocks_read"
	CounterScanBlocksSkipped = "scan.blocks_skipped"
	// Map-output memo metrics (internal/mapreduce.MapOutputCache):
	// memo_hits/memo_misses surface the memo cache's Stats() per
	// runtime: one increment per lookup, from either the scan-executor
	// submit path or the inline execMapper path.
	CounterMemoHits   = "engine.memo_hits"
	CounterMemoMisses = "engine.memo_misses"

	HistMapDuration    = "map.duration_s"
	HistMapQueueWait   = "map.queue_wait_s"
	HistReduceDuration = "reduce.duration_s"

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

// registry is the counter/gauge/histogram store behind a Tracer. It has
// no lock of its own: the Tracer's mutex guards it.
type registry struct {
	counters map[string]int64
	gauges   map[string]*GaugeSnapshot
	hists    map[string]*HistogramSnapshot
}

func newRegistry() registry {
	return registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]*GaugeSnapshot),
		hists:    make(map[string]*HistogramSnapshot),
	}
}

// Inc adds delta to the named counter.
func (t *Tracer) Inc(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reg.counters[name] += delta
}

// Counter returns the named counter's value (0 when never incremented).
func (t *Tracer) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reg.counters[name]
}

// Counters returns a copy of every counter.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.reg.counters))
	for k, v := range t.reg.counters {
		out[k] = v
	}
	return out
}

// SetGauge records the named gauge's current level and folds it into
// the gauge's min/max/avg aggregates.
func (t *Tracer) SetGauge(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
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
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]GaugeSnapshot, len(t.reg.gauges))
	for k, v := range t.reg.gauges {
		out[k] = *v
	}
	return out
}

// Observe folds a value into the named histogram.
func (t *Tracer) Observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.reg.hists[name]
	if h == nil {
		h = &HistogramSnapshot{Min: math.Inf(1), Max: math.Inf(-1)}
		t.reg.hists[name] = h
	}
	h.Count++
	h.Sum += v
	if v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
}

// Histogram returns the named histogram's snapshot and whether any
// value was ever observed.
func (t *Tracer) Histogram(name string) (HistogramSnapshot, bool) {
	if t == nil {
		return HistogramSnapshot{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.reg.hists[name]
	if h == nil {
		return HistogramSnapshot{}, false
	}
	return *h, true
}
