package mapreduce

import (
	"dynamicmr/internal/cluster"
	"dynamicmr/internal/trace"
)

// UtilizationIntervalS is the utilization poll period: the paper's §V-D
// "CPU utilization (%) and disk reads (Kbs/sec) at 30 second intervals".
const UtilizationIntervalS = 30.0

// Utilization is the cluster's mean load over the IntervalS virtual
// seconds that end at Time, in the units the paper reports: CPU percent
// of total core capacity, per-disk KB/s, percent of network capacity and
// percent of map and reduce slots occupied (§V-F's slot occupancy is
// MapSlotPct).
type Utilization struct {
	Time, IntervalS                                                    float64
	CPUUtilPct, DiskReadKBs, NetworkUtilPct, MapSlotPct, ReduceSlotPct float64
}

// NodeUtilization is one node's means, against the node's own capacity.
type NodeUtilization struct{ CPUUtilPct, DiskReadKBs, MapSlotPct, ReduceSlotPct float64 }

// nodeIntegrals are one node's service integrals at a reading.
type nodeIntegrals struct{ cpu, disk, mapSlot, reduceSlot float64 }

func (tt *TaskTracker) integrals() nodeIntegrals {
	return nodeIntegrals{tt.node.CPUUsedIntegral(), tt.node.DiskUsedIntegral(), tt.MapSlotIntegral(), tt.ReduceSlotIntegral()}
}

// UtilizationCursor turns the cluster's monotonic service integrals into
// interval means: each Advance reports the mean load since the previous
// Advance (or since construction). It is the one reader behind the §V-D
// poll, the obs sampler and the tsdb tick, so they agree wherever their
// intervals do. It reads passively (sim.SharedResource.UsedIntegral and
// the TaskTrackers' slot integrals add the accrual since the last change
// to their result), so a cursor never moves a completion.
type UtilizationCursor struct {
	jt                                *JobTracker
	lastT, lastCPU, lastDisk, lastNet float64
	last                              []nodeIntegrals
}

// NewUtilizationCursor starts a cursor with its baseline at now.
func (jt *JobTracker) NewUtilizationCursor() *UtilizationCursor {
	cl := jt.cluster
	c := &UtilizationCursor{jt: jt, lastT: jt.eng.Now(), last: make([]nodeIntegrals, len(jt.trackers)),
		lastCPU: cl.CPUUsedIntegral(), lastDisk: cl.DiskUsedIntegral(), lastNet: cl.NetworkUsedIntegral()}
	for i, tt := range jt.trackers {
		c.last[i] = tt.integrals()
	}
	return c
}

// Advance returns the cluster's means since the previous call; ok is
// false, and the baseline stays, when no virtual time has passed. A
// non-nil nodes (one entry per node, in node order) also receives each
// node's means. A cluster slot mean is the trackers' summed
// occupied-slot-seconds over total slots × the interval.
func (c *UtilizationCursor) Advance(nodes []NodeUtilization) (u Utilization, ok bool) {
	jt, cl := c.jt, c.jt.cluster
	now := jt.eng.Now()
	dt := now - c.lastT
	if dt <= 0 {
		return u, false
	}
	var mapSlotS, reduceSlotS float64
	for i, tt := range jt.trackers {
		cur, last := tt.integrals(), c.last[i]
		mapSlotS += cur.mapSlot - last.mapSlot
		reduceSlotS += cur.reduceSlot - last.reduceSlot
		if nodes != nil {
			nodes[i] = NodeUtilization{
				CPUUtilPct:    100 * (cur.cpu - last.cpu) / (tt.node.CPUCapacity() * dt),
				DiskReadKBs:   (cur.disk - last.disk) / dt / float64(len(tt.node.Disks)) / 1024,
				MapSlotPct:    100 * (cur.mapSlot - last.mapSlot) / (float64(tt.mapSlots) * dt),
				ReduceSlotPct: 100 * (cur.reduceSlot - last.reduceSlot) / (float64(tt.reduceSlots) * dt),
			}
		}
		c.last[i] = cur
	}
	cpu, disk, net := cl.CPUUsedIntegral(), cl.DiskUsedIntegral(), cl.NetworkUsedIntegral()
	u = Utilization{Time: now, IntervalS: dt,
		CPUUtilPct:     100 * (cpu - c.lastCPU) / (cl.CPUCapacity() * dt),
		DiskReadKBs:    (disk - c.lastDisk) / dt / float64(cluster.TotalDisks) / 1024,
		NetworkUtilPct: 100 * (net - c.lastNet) / (cl.NetworkCapacity() * dt),
		MapSlotPct:     100 * mapSlotS / (float64(cl.Cfg.TotalMapSlots()) * dt),
		ReduceSlotPct:  100 * reduceSlotS / (float64(cluster.Nodes*cluster.ReduceSlotsPerNode) * dt),
	}
	c.lastT, c.lastCPU, c.lastDisk, c.lastNet = now, cpu, disk, net
	return u, true
}

// settleNodes applies the node CPU and disk service accrued so far. Only
// the §V-D poll calls it: settling rounds a demand's remaining work at
// the poll instant and so moves later completions in the last bits. The
// figure 5-8 goldens were recorded with it; dropping it moves quick
// figure 6 (uniform) HA and Hadoop from 1278 to 1281 jobs/hour, which is
// a model change.
func (jt *JobTracker) settleNodes() {
	for _, n := range jt.cluster.Nodes {
		n.CPU.Settle()
		for _, d := range n.Disks {
			d.Settle()
		}
	}
}

// SampleUtilization starts the utilization poll: from now on, every
// UtilizationIntervalS virtual seconds one interval-averaged reading is
// appended to UtilizationTimeline (and, with tracing on, recorded into
// the tracer). It is idempotent — a second call, or the traced runtime's
// own start on first submission, never adds a second loop.
//
// The poll is opt-in because it settles the node CPU and disk accounts
// when it starts and before every reading (see settleNodes); a runtime
// nobody polls keeps its virtual timeline bit-for-bit.
func (jt *JobTracker) SampleUtilization() {
	if jt.polling {
		return
	}
	jt.polling = true
	jt.settleNodes()
	cur := jt.NewUtilizationCursor()
	var tick func()
	tick = func() {
		jt.settleNodes()
		if u, ok := cur.Advance(nil); ok {
			p := trace.MetricSample{Time: u.Time, CPUUtilPct: u.CPUUtilPct,
				DiskReadKBs: u.DiskReadKBs, SlotOccupancyPct: u.MapSlotPct}
			jt.utilization = append(jt.utilization, p)
			jt.tracer.RecordMetricSample(p)
		}
		jt.eng.After(UtilizationIntervalS, tick)
	}
	jt.eng.After(UtilizationIntervalS, tick)
}

// UtilizationTimeline returns the readings SampleUtilization has
// collected so far, oldest first. The slice is the tracker's own:
// callers must not mutate it.
func (jt *JobTracker) UtilizationTimeline() []trace.MetricSample { return jt.utilization }
