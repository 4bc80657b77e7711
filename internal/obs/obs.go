// Package obs is the cluster resource-utilization observability layer:
// a sampler driven by the simulated clock that periodically snapshots
// every node's CPU and disk use, map/reduce slot occupancy, queue
// depths, and per-policy Input Provider state — plus exporters for the
// artifacts those snapshots feed: a slot-occupancy Gantt joined from
// trace spans, a self-contained HTML run report, and a Prometheus/JSON
// HTTP surface (see server.go).
//
// The sampler reads the same monotonic service integrals the paper's
// §V-D monitoring tables are computed from, so a snapshot's interval
// averages agree with the end-of-run scalars by construction: the sum
// over snapshots of occupancy·Δt equals the occupied-slot-second
// integral, which equals the sum of attempt span durations.
package obs

import (
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/trace"
)

// DefaultIntervalS is the sampling period when Config leaves it zero —
// the paper's 30-second monitoring interval.
const DefaultIntervalS = 30.0

// Config tunes the sampler.
type Config struct {
	// IntervalS is the virtual-clock sampling period (default
	// DefaultIntervalS).
	IntervalS float64
}

func (c Config) interval() float64 {
	if c.IntervalS > 0 {
		return c.IntervalS
	}
	return DefaultIntervalS
}

// NodeSample is one node's interval-averaged resource reading.
type NodeSample struct {
	// Node is the node id.
	Node int
	// CPUUtilPct is mean CPU utilisation over the interval, in percent
	// of the node's core capacity (speed factors included).
	CPUUtilPct float64
	// DiskReadKBs is the mean per-disk transfer rate over the interval
	// in KB/s.
	DiskReadKBs float64
	// MapSlotPct is mean map-slot occupancy over the interval, derived
	// from the node's occupied-slot-second integral.
	MapSlotPct float64
	// ReduceSlotPct is mean reduce-slot occupancy over the interval.
	ReduceSlotPct float64
	// MapSlotsUsed/MapSlots and ReduceSlotsUsed/ReduceSlots are the
	// instantaneous occupancy at the sample boundary.
	MapSlotsUsed    int
	MapSlots        int
	ReduceSlotsUsed int
	ReduceSlots     int
}

// PolicyState aggregates the Input Provider audit log per policy: how
// many splits each policy has granted so far and how much headroom its
// last evaluation had over the work threshold.
type PolicyState struct {
	// Policy is the policy name.
	Policy string
	// Evaluations counts audit-log entries seen for the policy.
	Evaluations int
	// SplitsGranted is the cumulative number of partitions handed out.
	SplitsGranted int
	// LastVerdict is the most recent Verdict* constant.
	LastVerdict string
	// GrabLimit is the most recent partition cap.
	GrabLimit int
	// WorkThresholdPct is the policy's threshold in force.
	WorkThresholdPct float64
	// HeadroomPct is the last ProgressPct minus WorkThresholdPct: how
	// far the newly-completed-work percentage cleared (positive) or
	// missed (negative) the threshold.
	HeadroomPct float64
}

// Snapshot is one sampling tick: cluster-level interval averages, the
// per-node breakdown, queue depths, and per-policy provider state.
type Snapshot struct {
	// Time is the interval's end (virtual seconds).
	Time float64
	// Nodes holds one entry per cluster node, in node-id order.
	Nodes []NodeSample

	// Cluster-level interval means.
	CPUUtilPct     float64
	DiskReadKBs    float64
	NetworkUtilPct float64
	MapSlotPct     float64
	ReduceSlotPct  float64

	// Instantaneous load at the sample boundary.
	OccupiedMapSlots    int
	TotalMapSlots       int
	OccupiedReduceSlots int
	TotalReduceSlots    int
	QueuedMaps          int
	QueuedReduces       int
	RunningJobs         int

	// Policies is the per-policy provider state at the boundary, in
	// first-seen order.
	Policies []PolicyState
}

// Sampler snapshots the cluster at a fixed virtual interval. It is
// driven by the engine's event loop (Start schedules a self-renewing
// tick), reads only monotonic integrals and instantaneous counters, and
// never mutates simulation state — enabling it cannot change a run's
// virtual timeline.
//
// The sampler is single-writer (the engine goroutine) with snapshot
// reads allowed from other goroutines: recorded state is guarded by the
// tracer-style convention that Snapshots/Latest copy under the engine
// owner's external synchronisation (the obs.Server serialises engine
// stepping and scrapes with its own mutex).
type Sampler struct {
	jt       *mapreduce.JobTracker
	interval float64
	gen      int // invalidates scheduled ticks from older Start calls

	// Integral baselines from the previous tick.
	lastT       float64
	lastCPU     []float64
	lastDisk    []float64
	lastMapInt  []float64
	lastRedInt  []float64
	lastNet     float64
	lastClusCPU float64
	lastClusDsk float64

	// Incremental policy aggregation.
	decisionsSeen int
	polState      map[string]*PolicyState
	polOrder      []string

	snaps []Snapshot
}

// NewSampler builds a sampler for the tracker's cluster. Call Start to
// begin ticking.
func NewSampler(jt *mapreduce.JobTracker, cfg Config) *Sampler {
	return &Sampler{jt: jt, interval: cfg.interval(), polState: make(map[string]*PolicyState)}
}

// Interval returns the sampling period in virtual seconds.
func (s *Sampler) Interval() float64 { return s.interval }

// Start (re)initialises baselines at the current virtual time and
// schedules the periodic tick. Calling Start again supersedes earlier
// schedules (generation guard), so Stop+Start never leaves a dangling
// tick loop.
func (s *Sampler) Start() {
	s.gen++
	gen := s.gen
	s.rebase()
	var tick func()
	tick = func() {
		if s.gen != gen {
			return
		}
		s.sample()
		s.jt.Engine().After(s.interval, tick)
	}
	s.jt.Engine().After(s.interval, tick)
}

// Stop invalidates scheduled ticks. Recorded snapshots remain readable.
func (s *Sampler) Stop() { s.gen++ }

// rebase captures integral baselines at now.
func (s *Sampler) rebase() {
	jt := s.jt
	cl := jt.Cluster()
	n := len(cl.Nodes)
	s.lastT = jt.Engine().Now()
	s.lastCPU = make([]float64, n)
	s.lastDisk = make([]float64, n)
	s.lastMapInt = make([]float64, n)
	s.lastRedInt = make([]float64, n)
	trackers := jt.TaskTrackers()
	for i, node := range cl.Nodes {
		s.lastCPU[i] = node.CPUUsedIntegral()
		s.lastDisk[i] = node.DiskUsedIntegral()
		s.lastMapInt[i] = trackers[i].MapSlotIntegral()
		s.lastRedInt[i] = trackers[i].ReduceSlotIntegral()
	}
	s.lastNet = cl.NetworkUsedIntegral()
	s.lastClusCPU = cl.CPUUsedIntegral()
	s.lastClusDsk = cl.DiskUsedIntegral()
}

// sample takes one snapshot and advances the baselines.
func (s *Sampler) sample() {
	jt := s.jt
	cl := jt.Cluster()
	now := jt.Engine().Now()
	dt := now - s.lastT
	if dt <= 0 {
		return
	}
	trackers := jt.TaskTrackers()
	snap := Snapshot{Time: now, Nodes: make([]NodeSample, len(cl.Nodes))}
	for i, node := range cl.Nodes {
		tt := trackers[i]
		cpu := node.CPUUsedIntegral()
		disk := node.DiskUsedIntegral()
		mapInt := tt.MapSlotIntegral()
		redInt := tt.ReduceSlotIntegral()
		ns := NodeSample{
			Node:            node.ID,
			CPUUtilPct:      100 * (cpu - s.lastCPU[i]) / (node.CPUCapacity() * dt),
			DiskReadKBs:     (disk - s.lastDisk[i]) / dt / float64(len(node.Disks)) / 1024,
			MapSlotsUsed:    tt.MapSlotsUsed(),
			MapSlots:        tt.MapSlots(),
			ReduceSlotsUsed: tt.ReduceSlotsUsed(),
			ReduceSlots:     tt.ReduceSlots(),
		}
		if tt.MapSlots() > 0 {
			ns.MapSlotPct = 100 * (mapInt - s.lastMapInt[i]) / (float64(tt.MapSlots()) * dt)
		}
		if tt.ReduceSlots() > 0 {
			ns.ReduceSlotPct = 100 * (redInt - s.lastRedInt[i]) / (float64(tt.ReduceSlots()) * dt)
		}
		snap.Nodes[i] = ns
		s.lastCPU[i], s.lastDisk[i], s.lastMapInt[i], s.lastRedInt[i] = cpu, disk, mapInt, redInt
	}

	net := cl.NetworkUsedIntegral()
	clusCPU := cl.CPUUsedIntegral()
	clusDsk := cl.DiskUsedIntegral()
	st := jt.ClusterStatus()
	snap.CPUUtilPct = 100 * (clusCPU - s.lastClusCPU) / (cl.CPUCapacity() * dt)
	snap.DiskReadKBs = (clusDsk - s.lastClusDsk) / dt / float64(cl.Cfg.TotalDisks()) / 1024
	snap.NetworkUtilPct = 100 * (net - s.lastNet) / (cl.NetworkCapacity() * dt)
	if st.TotalMapSlots > 0 {
		var used float64
		for _, ns := range snap.Nodes {
			used += ns.MapSlotPct * float64(ns.MapSlots)
		}
		snap.MapSlotPct = used / float64(st.TotalMapSlots)
	}
	if st.TotalReduceSlots > 0 {
		var used float64
		for _, ns := range snap.Nodes {
			used += ns.ReduceSlotPct * float64(ns.ReduceSlots)
		}
		snap.ReduceSlotPct = used / float64(st.TotalReduceSlots)
	}
	snap.OccupiedMapSlots = st.OccupiedMapSlots
	snap.TotalMapSlots = st.TotalMapSlots
	snap.OccupiedReduceSlots = st.OccupiedReduces
	snap.TotalReduceSlots = st.TotalReduceSlots
	snap.QueuedMaps = st.QueuedMapTasks
	snap.QueuedReduces = st.QueuedReduceTasks
	snap.RunningJobs = st.RunningJobs
	s.lastNet, s.lastClusCPU, s.lastClusDsk, s.lastT = net, clusCPU, clusDsk, now

	s.foldPolicyDecisions()
	snap.Policies = s.policySnapshot()
	s.snaps = append(s.snaps, snap)

	s.publishGauges(snap)
}

// foldPolicyDecisions consumes new audit-log entries incrementally.
func (s *Sampler) foldPolicyDecisions() {
	tr := s.jt.Tracer()
	if !tr.Enabled() {
		return
	}
	fresh := tr.PolicyDecisionsSince(s.decisionsSeen)
	s.decisionsSeen += len(fresh)
	for _, d := range fresh {
		ps := s.polState[d.Policy]
		if ps == nil {
			ps = &PolicyState{Policy: d.Policy}
			s.polState[d.Policy] = ps
			s.polOrder = append(s.polOrder, d.Policy)
		}
		ps.Evaluations++
		ps.SplitsGranted += d.Added
		ps.LastVerdict = d.Verdict
		ps.GrabLimit = d.GrabLimit
		ps.WorkThresholdPct = d.WorkThresholdPct
		ps.HeadroomPct = d.ProgressPct - d.WorkThresholdPct
	}
}

// policySnapshot copies the aggregated per-policy state in first-seen
// order.
func (s *Sampler) policySnapshot() []PolicyState {
	if len(s.polOrder) == 0 {
		return nil
	}
	out := make([]PolicyState, 0, len(s.polOrder))
	for _, name := range s.polOrder {
		out = append(out, *s.polState[name])
	}
	return out
}

// publishGauges mirrors the snapshot's cluster-level readings into the
// tracer's gauge registry, which PromFamilies then exposes on /metrics.
func (s *Sampler) publishGauges(snap Snapshot) {
	tr := s.jt.Tracer()
	if !tr.Enabled() {
		return
	}
	tr.SetGauge(trace.GaugeCPUUtilPct, snap.CPUUtilPct)
	tr.SetGauge(trace.GaugeDiskReadKBs, snap.DiskReadKBs)
	tr.SetGauge(trace.GaugeNetworkUtilPct, snap.NetworkUtilPct)
	tr.SetGauge(trace.GaugeMapSlotPct, snap.MapSlotPct)
	tr.SetGauge(trace.GaugeReduceSlotPct, snap.ReduceSlotPct)
	tr.SetGauge(trace.GaugeQueuedMaps, float64(snap.QueuedMaps))
	tr.SetGauge(trace.GaugeQueuedReduces, float64(snap.QueuedReduces))
	tr.SetGauge(trace.GaugeRunningJobs, float64(snap.RunningJobs))
	tr.SetGauge(trace.GaugeVirtualTime, snap.Time)
	tr.SetGauge(trace.GaugeProcessedEvents, float64(s.jt.Engine().Processed()))
}

// Snapshots returns the recorded time series.
func (s *Sampler) Snapshots() []Snapshot { return append([]Snapshot(nil), s.snaps...) }

// SnapshotCount returns how many snapshots have been recorded: the
// cursor SnapshotsSince expects next.
func (s *Sampler) SnapshotCount() int { return len(s.snaps) }

// SnapshotsSince returns the snapshots recorded at index >= from,
// mirroring trace.PolicyDecisionsSince: incremental consumers (the
// server's publish step, live dashboards) advance a cursor by the
// returned length instead of copying the whole series on every poll.
func (s *Sampler) SnapshotsSince(from int) []Snapshot {
	if from < 0 {
		from = 0
	}
	if from >= len(s.snaps) {
		return nil
	}
	return append([]Snapshot(nil), s.snaps[from:]...)
}

// Latest returns the most recent snapshot (ok false before the first
// tick).
func (s *Sampler) Latest() (Snapshot, bool) {
	if len(s.snaps) == 0 {
		return Snapshot{}, false
	}
	return s.snaps[len(s.snaps)-1], true
}

// JobTracker returns the runtime the sampler observes.
func (s *Sampler) JobTracker() *mapreduce.JobTracker { return s.jt }
