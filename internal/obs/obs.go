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
// The sampler's interval means come from mapreduce.UtilizationCursor,
// the one reader behind the §V-D poll and the tsdb tick too, so a
// snapshot agrees with the poll at every instant they share, and the sum
// over snapshots of occupancy·Δt equals the TaskTrackers'
// occupied-slot-second integrals, which equal the sum of attempt span
// durations.
//
// Sampling cannot change a run's virtual timeline: the cursor reads
// every integral passively, so no demand's remaining work is rounded at
// a tick, and the ticks are extra engine events, which the engine orders
// by (time, sequence), so they never reorder the others. Only the §V-D
// poll settles the accounts it reads
// (mapreduce.JobTracker.SampleUtilization).
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
// tick), reads a utilization cursor and instantaneous counters, and
// never mutates simulation state (see the package doc).
//
// The sampler is single-writer: the goroutine that drives the engine
// also reads its snapshots, or publishes them for others (obs.Server).
type Sampler struct {
	jt       *mapreduce.JobTracker
	interval float64

	// cur is nil until Start; nodes receives its per-node means.
	cur   *mapreduce.UtilizationCursor
	nodes []mapreduce.NodeUtilization

	snaps []Snapshot
}

// NewSampler builds a sampler for the tracker's cluster. Call Start to
// begin ticking.
func NewSampler(jt *mapreduce.JobTracker, cfg Config) *Sampler {
	return &Sampler{jt: jt, interval: cfg.interval()}
}

// Start sets the baseline at the current virtual time and schedules
// the periodic tick. It is a no-op once started, so a sampler never
// runs two tick loops.
func (s *Sampler) Start() {
	if s.cur != nil {
		return
	}
	s.cur = s.jt.NewUtilizationCursor()
	s.nodes = make([]mapreduce.NodeUtilization, len(s.jt.TaskTrackers()))
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
	if s.cur != nil {
		s.sample()
	}
	return s.Snapshots()
}

// sample advances the cursor and records one snapshot.
func (s *Sampler) sample() {
	u, ok := s.cur.Advance(s.nodes)
	if !ok {
		return
	}
	st := s.jt.ClusterStatus()
	snap := Snapshot{
		Time: u.Time, IntervalS: u.IntervalS, Nodes: make([]NodeSample, len(s.nodes)),
		CPUUtilPct: u.CPUUtilPct, DiskReadKBs: u.DiskReadKBs, NetworkUtilPct: u.NetworkUtilPct,
		MapSlotPct: u.MapSlotPct, ReduceSlotPct: u.ReduceSlotPct,
		OccupiedMapSlots: st.OccupiedMapSlots, TotalMapSlots: st.TotalMapSlots,
		OccupiedReduceSlots: st.OccupiedReduces, TotalReduceSlots: st.TotalReduceSlots,
		QueuedMaps: st.QueuedMapTasks, QueuedReduces: st.QueuedReduceTasks, RunningJobs: st.RunningJobs,
	}
	for i, tt := range s.jt.TaskTrackers() {
		m := s.nodes[i]
		snap.Nodes[i] = NodeSample{
			Node:       s.jt.Cluster().Nodes[i].ID,
			CPUUtilPct: m.CPUUtilPct, DiskReadKBs: m.DiskReadKBs,
			MapSlotPct: m.MapSlotPct, ReduceSlotPct: m.ReduceSlotPct,
			MapSlotsUsed: tt.MapSlotsUsed(), MapSlots: tt.MapSlots(),
			ReduceSlotsUsed: tt.ReduceSlotsUsed(), ReduceSlots: tt.ReduceSlots(),
		}
	}
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
