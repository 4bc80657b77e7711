// Package obs is the cluster resource-utilization observability layer:
// a sampler driven by the simulated clock that periodically snapshots
// every node's CPU and disk use, map/reduce slot occupancy and queue
// depths — plus exporters for the artifacts those snapshots feed: a
// slot-occupancy Gantt joined from trace spans, the one HTML renderer
// (the run report of a run archive, `dynmr render report`; the /live
// page, which is the report of the server's published snapshot; and
// the `dynmr diff -html` page), and a Prometheus/JSON HTTP surface
// (see server.go).
//
// The sampler reads the same monotonic service integrals the paper's
// §V-D monitoring tables are computed from, so a snapshot's interval
// averages agree with the end-of-run scalars by construction: the sum
// over snapshots of occupancy·Δt equals the occupied-slot-second
// integral, which equals the sum of attempt span durations.
//
// Sampling cannot change a run's virtual timeline. The sampler reads
// every integral passively (sim.SharedResource.UsedIntegral adds the
// accrued service to its result instead of settling it into the active
// demands, and the slot integrals likewise), so no demand's remaining
// work is rounded at a tick. Its ticks are extra engine events, and the
// engine orders events by (time, sequence), so they never reorder the
// others. Only the §V-D poll settles what it reads
// (mapreduce.UtilizationCursor).
package obs

import (
	"dynamicmr/internal/cluster"
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
	Node int `json:"node"`
	// CPUUtilPct is mean CPU utilisation over the interval, in percent
	// of the node's core capacity (speed factors included).
	CPUUtilPct float64 `json:"cpu_util_pct"`
	// DiskReadKBs is the mean per-disk transfer rate over the interval
	// in KB/s.
	DiskReadKBs float64 `json:"disk_read_kb_s"`
	// MapSlotPct is mean map-slot occupancy over the interval, derived
	// from the node's occupied-slot-second integral.
	MapSlotPct float64 `json:"map_slot_pct"`
	// ReduceSlotPct is mean reduce-slot occupancy over the interval.
	ReduceSlotPct float64 `json:"reduce_slot_pct"`
	// MapSlotsUsed/MapSlots and ReduceSlotsUsed/ReduceSlots are the
	// instantaneous occupancy at the sample boundary.
	MapSlotsUsed    int `json:"map_slots_used"`
	MapSlots        int `json:"map_slots"`
	ReduceSlotsUsed int `json:"reduce_slots_used"`
	ReduceSlots     int `json:"reduce_slots"`
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
// per-node breakdown and queue depths. It carries no per-policy state:
// consumers fold that from the decision log (policyFold). Its JSON form
// is the run archive's snapshot record (schema dynamicmr.archive/1), so
// the names are an external contract.
type Snapshot struct {
	// Time is the interval's end (virtual seconds).
	Time float64 `json:"time_s"`
	// IntervalS is the interval's length: the sampling period, or less
	// for the last partial interval Cut takes.
	IntervalS float64 `json:"interval_s"`
	// Nodes holds one entry per cluster node, in node-id order.
	Nodes []NodeSample `json:"nodes"`

	// Cluster-level interval means.
	CPUUtilPct     float64 `json:"cpu_util_pct"`
	DiskReadKBs    float64 `json:"disk_read_kb_s"`
	NetworkUtilPct float64 `json:"network_util_pct"`
	MapSlotPct     float64 `json:"map_slot_pct"`
	ReduceSlotPct  float64 `json:"reduce_slot_pct"`

	// Instantaneous load at the sample boundary.
	OccupiedMapSlots    int `json:"occupied_map_slots"`
	TotalMapSlots       int `json:"total_map_slots"`
	OccupiedReduceSlots int `json:"occupied_reduce_slots"`
	TotalReduceSlots    int `json:"total_reduce_slots"`
	QueuedMaps          int `json:"queued_maps"`
	QueuedReduces       int `json:"queued_reduces"`
	RunningJobs         int `json:"running_jobs"`
}

// Sampler snapshots the cluster at a fixed virtual interval. It is
// driven by the engine's event loop (Start schedules a self-renewing
// tick), reads only monotonic integrals and instantaneous counters, and
// never mutates simulation state (see the package doc).
//
// The sampler is single-writer: the goroutine that drives the engine
// also reads its snapshots, or publishes them for others (obs.Server).
type Sampler struct {
	jt       *mapreduce.JobTracker
	interval float64

	// Integral baselines from the previous tick.
	lastT       float64
	lastCPU     []float64
	lastDisk    []float64
	lastMapInt  []float64
	lastRedInt  []float64
	lastNet     float64
	lastClusCPU float64
	lastClusDsk float64

	snaps []Snapshot
}

// NewSampler builds a sampler for the tracker's cluster. Call Start to
// begin ticking.
func NewSampler(jt *mapreduce.JobTracker, cfg Config) *Sampler {
	return &Sampler{jt: jt, interval: cfg.interval()}
}

// Start initialises baselines at the current virtual time and
// schedules the periodic tick. It is a no-op once started, so a
// sampler never runs two tick loops.
func (s *Sampler) Start() {
	if s.lastCPU != nil {
		return
	}
	s.rebase()
	var tick func()
	tick = func() {
		s.sample()
		s.jt.Engine().After(s.interval, tick)
	}
	s.jt.Engine().After(s.interval, tick)
}

// Cut takes the last partial interval and returns the whole series: a
// run archive is cut with it. The partial interval is one snapshot at
// the current virtual time over the time since the previous one, as
// tsdb.DB.Flush does for its series, so a run that stops between ticks
// keeps its tail; none is taken before Start or when no virtual time
// has passed. A nil sampler cuts an empty series.
func (s *Sampler) Cut() []Snapshot {
	if s == nil {
		return nil
	}
	if s.lastCPU != nil {
		s.sample()
	}
	return s.Snapshots()
}

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
	snap := Snapshot{Time: now, IntervalS: dt, Nodes: make([]NodeSample, len(cl.Nodes))}
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
	snap.DiskReadKBs = (clusDsk - s.lastClusDsk) / dt / float64(cluster.TotalDisks) / 1024
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
	s.snaps = append(s.snaps, snap)
}

// policyFold aggregates the Input Provider audit log per policy, in
// first-seen order. The server folds it publish by publish; the report
// folds a run's whole decision log at once.
type policyFold struct {
	state map[string]*PolicyState
	order []string
}

func (f *policyFold) add(d trace.PolicyDecision) {
	ps := f.state[d.Policy]
	if ps == nil {
		if f.state == nil {
			f.state = make(map[string]*PolicyState)
		}
		ps = &PolicyState{Policy: d.Policy}
		f.state[d.Policy] = ps
		f.order = append(f.order, d.Policy)
	}
	ps.Evaluations++
	ps.SplitsGranted += d.Added
	ps.LastVerdict = d.Verdict
	ps.GrabLimit = d.GrabLimit
	ps.WorkThresholdPct = d.WorkThresholdPct
	ps.HeadroomPct = d.ProgressPct - d.WorkThresholdPct
}

// states copies the aggregated per-policy state in first-seen order.
func (f *policyFold) states() []PolicyState {
	if len(f.order) == 0 {
		return nil
	}
	out := make([]PolicyState, 0, len(f.order))
	for _, name := range f.order {
		out = append(out, *f.state[name])
	}
	return out
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
