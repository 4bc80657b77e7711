package mapreduce

import (
	"dynamicmr/internal/cluster"
	"dynamicmr/internal/trace"
)

// UtilizationIntervalS is the utilization poll period: the paper's §V-D
// "CPU utilization (%) and disk reads (Kbs/sec) at 30 second intervals".
const UtilizationIntervalS = 30.0

// UtilizationCursor turns the cluster's monotonic service integrals
// into interval averages: each Advance reports the mean utilization
// since the previous Advance (or since construction), in the units the
// paper reports — CPU percent of total core capacity, per-disk KB/s,
// and percent of map slots occupied.
type UtilizationCursor struct {
	jt                                 *JobTracker
	lastT, lastCPU, lastDisk, lastSlot float64
}

// NewUtilizationCursor starts a cursor with its baseline at now.
func (jt *JobTracker) NewUtilizationCursor() *UtilizationCursor {
	c := &UtilizationCursor{jt: jt, lastT: jt.eng.Now()}
	c.lastCPU, c.lastDisk, c.lastSlot = c.read()
	return c
}

// read returns the CPU, disk and map-slot integrals at now. It is the
// one reader that settles the accounts it reads: it applies the node
// CPU and disk service accrued so far before reading them, where every
// other reader (the obs sampler) leaves them as they are. Settling
// rounds a demand's remaining work at the poll instant and so moves
// later completions in the last bits. The figure 5-8 goldens
// (experiments_quick_output.txt and the cell archives) were recorded
// with it; dropping it moves quick figure 6 (uniform) HA and Hadoop
// from 1278 to 1281 jobs/hour, which is a model change.
func (c *UtilizationCursor) read() (cpu, disk, slot float64) {
	for _, n := range c.jt.cluster.Nodes {
		n.CPU.Settle()
		for _, d := range n.Disks {
			d.Settle()
		}
	}
	return c.jt.cluster.CPUUsedIntegral(), c.jt.cluster.DiskUsedIntegral(), c.jt.MapSlotOccupancyIntegral()
}

// Advance reads the integrals and returns the interval average since
// the previous call; ok is false when no virtual time has passed.
func (c *UtilizationCursor) Advance() (p trace.MetricSample, ok bool) {
	jt := c.jt
	now := jt.eng.Now()
	dt := now - c.lastT
	cpu, disk, slot := c.read()
	if dt > 0 {
		ok = true
		p = trace.MetricSample{
			Time:             now,
			CPUUtilPct:       100 * (cpu - c.lastCPU) / (jt.cluster.CPUCapacity() * dt),
			DiskReadKBs:      (disk - c.lastDisk) / dt / float64(cluster.TotalDisks) / 1024,
			SlotOccupancyPct: 100 * (slot - c.lastSlot) / (float64(jt.cluster.Cfg.TotalMapSlots()) * dt),
		}
	}
	c.lastT, c.lastCPU, c.lastDisk, c.lastSlot = now, cpu, disk, slot
	return p, ok
}

// SampleUtilization starts the utilization poll: from now on, every
// UtilizationIntervalS virtual seconds one interval-averaged reading is
// appended to UtilizationTimeline (and, with tracing on, recorded into
// the tracer). It is idempotent — a second call, or the traced runtime's
// own start on first submission, never adds a second loop.
//
// The poll is opt-in because every reading settles the node CPU and
// disk accounts (see UtilizationCursor.read); a runtime nobody polls
// keeps its virtual timeline bit-for-bit.
func (jt *JobTracker) SampleUtilization() {
	if jt.polling {
		return
	}
	jt.polling = true
	cur := jt.NewUtilizationCursor()
	var tick func()
	tick = func() {
		if p, ok := cur.Advance(); ok {
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
