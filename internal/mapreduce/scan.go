package mapreduce

import (
	"dynamicmr/internal/mapreduce/executor"
	"dynamicmr/internal/trace"
)

// This file is the runtime's bridge to the scan executor
// (internal/mapreduce/executor): pure map record scans run on a worker
// pool off the simulator thread, overlapping real compute with the
// discrete-event simulation.
//
// Determinism contract:
//
//   - Purity gate: only jobs that declare a MemoKey — the existing
//     promise that a split's map output is a function of (source,
//     MemoKey) alone — are submitted. Impure jobs execute inline at
//     completion time, exactly as without a pool.
//   - Event-order join: the result is consumed only when the attempt's
//     completion event fires, on the simulator goroutine, so all job
//     state mutates in event order regardless of when workers finish.
//   - Virtual time is never advanced by real time: a join that has to
//     wait blocks the host goroutine inside sim.Engine.RealBlock, which
//     asserts the virtual clock unchanged.
//
// The MapOutputCache sits behind the executor: a submit first consults
// the cache (hit → pre-resolved future), and the pool's singleflight
// dedupes concurrent attempts on the same (source, MemoKey) — a
// speculative twin within a cell and colliding cells of a parallel
// sweep all share one execution, whose output the closure memoises.

// submitScan dispatches the attempt's record scan to the scan executor
// when the map attempt's phase chain starts. It returns nil when the
// scan must instead run inline at completion (no pool configured, or
// the job made no purity declaration).
func (jt *JobTracker) submitScan(t *MapTask) *executor.Future {
	pool := jt.cfg.ScanExecutor
	memo := t.Job.memo
	if !pool.Enabled() || memo == "" {
		return nil // purity gate: impure jobs never enter the pool
	}
	src := t.Split.Block.Source
	tab := t.Job.memoTab
	if tab != nil {
		if out, ok := tab.lookup(src); ok {
			jt.tracer.Inc(trace.CounterMemoHits, 1)
			return executor.Resolved(out)
		}
		jt.tracer.Inc(trace.CounterMemoMisses, 1)
	}
	// The closure captures only values fixed when the phase chain
	// starts — the spec (user factories + MemoKey), the conf, the split
	// ordinal and the source (the input path's view of it for the scan;
	// the original for cache and singleflight identity). It runs on a
	// pool worker concurrently with the simulation, so it must not
	// touch mutable task or job state.
	spec, conf, idx := t.Job.Spec, t.Job.Conf, t.Index
	scanSrc := jt.scanSource(t.Job, t.Split)
	return pool.Submit(executor.Key{Source: src, Memo: memo}, func() (any, error) {
		out, err := scanSplit(spec, conf, idx, scanSrc)
		if err == nil && tab != nil {
			tab.store(src, out)
		}
		return out, err
	})
}

// joinScan consumes an async scan's result at completion-event time,
// blocking (in real time only) when the scan is still running.
func (jt *JobTracker) joinScan(fut *executor.Future) (*Collector, error) {
	var out *Collector
	var err error
	join := func() {
		v, e := fut.Wait()
		if v != nil {
			out = v.(*Collector)
		}
		err = e
	}
	if fut.Ready() {
		join() // real compute beat simulated time; no stall
	} else {
		jt.tracer.Inc(trace.CounterScanStalls, 1)
		jt.eng.RealBlock(join)
	}
	jt.tracer.Inc(trace.CounterScanAsync, 1)
	return out, err
}
