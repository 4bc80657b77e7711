package mapreduce

import (
	"fmt"
	"slices"

	"dynamicmr/internal/data"
	"dynamicmr/internal/mapreduce/executor"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/trace"
)

// mapAttempt is one execution of a MapTask on a tracker. A task may
// have a second, speculative attempt racing the first; the loser is
// killed mid-flight.
type mapAttempt struct {
	jt          *JobTracker
	task        *MapTask
	tt          *TaskTracker
	local       bool
	loc         dfsLocation
	speculative bool
	startTime   float64
	// seq is the attempt ordinal (task.Attempts at launch); later
	// launches advance task.Attempts, so trace spans capture it here.
	seq int
	// charge is the read cost fixed at launch; the read phase and the
	// completion accounting both use it.
	charge scanCharge
	// phase/phaseStart track the open trace phase span; phase is ""
	// when tracing is disabled or no phase is open.
	phase      string
	phaseStart float64

	// stage is the step in progress; next is advance, bound once at
	// launch, and is the callback every step's timer or demand fires.
	stage attemptStage
	next  func()

	// in-flight stage handles for cancellation
	timer  *sim.Event
	res    *sim.SharedResource
	demand *sim.Demand
	killed bool

	// scan is the attempt's asynchronous record scan on the executor
	// pool (nil when the scan runs inline: no pool, or an impure job).
	// A killed or superseded attempt simply abandons the handle — pure
	// results are reusable, so the pool finishes the work in the
	// background and memoises it for whoever needs it next.
	scan *executor.Future
}

// tracePhase closes the attempt's open phase span, if any, and opens
// next ("" closes without opening). No-op when tracing is disabled.
func (jt *JobTracker) tracePhase(att *mapAttempt, next string) {
	if !jt.tracer.Enabled() {
		return
	}
	now := jt.eng.Now()
	if att.phase != "" {
		jt.tracer.Record(trace.Span{Name: att.phase, Cat: trace.CatMap,
			Start: att.phaseStart, End: now, Job: att.task.Job.ID, Task: att.task.Index,
			Attempt: att.seq, Node: att.tt.node.ID, Speculative: att.speculative})
	}
	att.phase, att.phaseStart = next, now
}

// dfsLocation mirrors dfs.Location without importing the package here.
type dfsLocation struct{ Node, Disk int }

// launchMap runs a map attempt on the tracker's node. The attempt's
// timeline: slot occupied → startup latency → split read (local disk,
// or remote disk + network) → CPU → user mapper executes → completion
// report (or injected failure → requeue). speculative attempts race an
// existing one.
func (jt *JobTracker) launchMap(tt *TaskTracker, t *MapTask) {
	t.Job.takePending(t)
	jt.startAttempt(tt, t, false)
}

// launchSpeculative starts a backup attempt for a running task.
func (jt *JobTracker) launchSpeculative(tt *TaskTracker, t *MapTask) {
	t.Job.Counters.SpeculativeLaunches++
	jt.startAttempt(tt, t, true)
}

func (jt *JobTracker) startAttempt(tt *TaskTracker, t *MapTask, speculative bool) {
	j := t.Job
	j.runningMaps[t] = struct{}{}
	t.Attempts++
	t.Node = tt.node.ID

	loc, local := t.Split.Block.LocalTo(tt.node.ID)
	if !local {
		loc = t.Split.Block.Primary()
	}
	t.Local = local

	att := &mapAttempt{
		jt:          jt,
		task:        t,
		tt:          tt,
		local:       local,
		loc:         dfsLocation{Node: loc.Node, Disk: loc.Disk},
		speculative: speculative,
		startTime:   jt.eng.Now(),
		seq:         t.Attempts,
		charge:      jt.scanCharge(j, t.Split),
	}
	att.next = att.advance
	t.running = append(t.running, att)
	// The attempt's inputs (split, conf, MemoKey) are fixed from here
	// on, so the real record scan can start now on the executor pool
	// while the simulation charges the attempt's virtual I/O and CPU.
	att.scan = jt.submitScan(t)

	tt.changeMapSlots(+1)
	jt.changeMapSlots(+1)
	jt.emit(TaskEvent{Type: EventMapStarted, JobID: j.ID, TaskIndex: t.Index,
		Node: tt.node.ID, Attempt: t.Attempts, Speculative: speculative})
	if tr := jt.tracer; tr.Enabled() {
		if speculative {
			tr.Instant(trace.EventSpeculativeLaunch, trace.CatMap, att.startTime, j.ID, t.Index, tt.node.ID)
			tr.Inc(trace.CounterMapSpeculative, 1)
		} else {
			tr.Record(trace.Span{Name: trace.SpanQueueWait, Cat: trace.CatMap,
				Start: t.enqueued, End: att.startTime, Job: j.ID, Task: t.Index,
				Attempt: att.seq, Node: tt.node.ID})
			tr.Observe(trace.HistMapQueueWait, att.startTime-t.enqueued)
		}
		tr.Inc(trace.CounterMapAttempts, 1)
	}
	jt.tracePhase(att, trace.SpanStartup)
	att.timer = jt.eng.After(jt.cfg.Costs.TaskStartupS, att.next)
}

// attemptStage is the step a map attempt is in.
type attemptStage uint8

const (
	stageStartup attemptStage = iota
	stageDiskRead
	stageNetRead
	stageCPU
)

// advance ends the attempt's current stage and starts the next: startup
// → disk read (→ network read from a remote disk) → CPU → completion.
// A killed attempt's pending stage never starts.
func (att *mapAttempt) advance() {
	jt := att.jt
	switch att.stage {
	case stageStartup:
		att.timer = nil
		if att.killed {
			return
		}
		// The read is committed: every attempt reaching its read phase
		// pays for its blocks, like the disk I/O below.
		ch := att.charge
		j := att.task.Job
		j.Counters.ScanBlocksRead += ch.blocksRead
		j.Counters.ScanBlocksSkipped += ch.blocksSkipped
		if tr := jt.tracer; tr.Enabled() {
			tr.Inc(trace.CounterScanBlocksRead, ch.blocksRead)
			tr.Inc(trace.CounterScanBlocksSkipped, ch.blocksSkipped)
		}
		jt.tracePhase(att, trace.SpanDiskRead)
		att.submit(stageDiskRead, jt.cluster.Node(att.loc.Node).Disks[att.loc.Disk], ch.bytes)
	case stageDiskRead:
		if att.killed {
			return
		}
		if !att.local {
			// Remote read: source disk, then the fabric.
			jt.tracePhase(att, trace.SpanNetRead)
			att.submit(stageNetRead, jt.cluster.Network, att.charge.bytes)
			return
		}
		att.startCPU()
	case stageNetRead:
		if att.killed {
			return
		}
		att.startCPU()
	case stageCPU:
		att.res, att.demand = nil, nil
		jt.finishMapAttempt(att)
	}
}

// startCPU charges the attempt's map CPU on its node.
func (att *mapAttempt) startCPU() {
	att.jt.tracePhase(att, trace.SpanMapCPU)
	work := float64(att.charge.records) * att.jt.cfg.Costs.MapCPUPerRecordS
	att.submit(stageCPU, att.tt.node.CPU, work)
}

// submit enters stage by demanding work from res.
func (att *mapAttempt) submit(stage attemptStage, res *sim.SharedResource, work float64) {
	att.stage, att.res = stage, res
	att.demand = res.Submit(work, att.next)
}

// killAttempt cancels an in-flight attempt and frees its slot.
func (jt *JobTracker) killAttempt(att *mapAttempt) {
	if att.killed {
		return
	}
	att.killed = true
	att.scan = nil // abandon any async scan; the pool finishes it
	if att.timer != nil {
		jt.eng.Cancel(att.timer)
		att.timer = nil
	}
	if att.res != nil && att.demand != nil {
		att.res.Cancel(att.demand)
		att.res, att.demand = nil, nil
	}
	att.task.Job.Counters.KilledAttempts++
	jt.emit(TaskEvent{Type: EventMapKilled, JobID: att.task.Job.ID, TaskIndex: att.task.Index,
		Node: att.tt.node.ID, Speculative: att.speculative})
	jt.tracePhase(att, "")
	if tr := jt.tracer; tr.Enabled() {
		now := jt.eng.Now()
		tr.Record(trace.Span{Name: trace.SpanMapAttempt, Cat: trace.CatMap,
			Start: att.startTime, End: now, Job: att.task.Job.ID, Task: att.task.Index,
			Attempt: att.seq, Node: att.tt.node.ID, Speculative: att.speculative,
			Outcome: trace.OutcomeKilled})
		tr.Instant(trace.EventMapKilled, trace.CatMap, now, att.task.Job.ID, att.task.Index, att.tt.node.ID)
		tr.Inc(trace.CounterMapKilled, 1)
	}
	jt.releaseAttempt(att)
}

// releaseAttempt frees the attempt's slot and detaches it from its
// task, updating the job's running-task set.
func (jt *JobTracker) releaseAttempt(att *mapAttempt) {
	t := att.task
	if i := slices.Index(t.running, att); i >= 0 {
		t.running = slices.Delete(t.running, i, i+1)
	}
	if len(t.running) == 0 {
		delete(t.Job.runningMaps, t)
		t.Node = -1
	}
	att.tt.changeMapSlots(-1)
	jt.changeMapSlots(-1)
}

// finishMapAttempt runs the real user mapper, applies failure
// injection, and reports completion to the job.
func (jt *JobTracker) finishMapAttempt(att *mapAttempt) {
	if att.killed {
		return
	}
	t := att.task
	j := t.Job
	tt := att.tt
	jt.tracePhase(att, "")
	jt.releaseAttempt(att)
	att.killed = true // no further stages may run
	scan := att.scan
	att.scan = nil

	if j.Done() || t.completed {
		// Job failed mid-flight, or a sibling attempt won the race in
		// the same instant; the slot is already free.
		jt.tracer.Record(trace.Span{Name: trace.SpanMapAttempt, Cat: trace.CatMap,
			Start: att.startTime, End: jt.eng.Now(), Job: j.ID, Task: t.Index,
			Attempt: att.seq, Node: tt.node.ID, Speculative: att.speculative,
			Outcome: trace.OutcomeLate})
		jt.assign(tt)
		return
	}

	failed := false
	var out *Collector
	var err error
	switch {
	case jt.cfg.FailureInjector != nil && jt.cfg.FailureInjector(j, t):
		// Injected failure: any async scan is abandoned (its pure
		// result stays reusable via the cache for the retry).
		failed = true
		err = fmt.Errorf("injected failure")
	case scan != nil:
		// Event-order join of the scan submitted at attempt start.
		out, err = jt.joinScan(scan)
		failed = err != nil
	default:
		out, err = jt.execMapper(t)
		failed = err != nil
	}

	if failed {
		j.Counters.FailedMapAttempts++
		jt.emit(TaskEvent{Type: EventMapFailed, JobID: j.ID, TaskIndex: t.Index,
			Node: tt.node.ID, Attempt: t.Attempts, Speculative: att.speculative})
		if tr := jt.tracer; tr.Enabled() {
			now := jt.eng.Now()
			tr.Record(trace.Span{Name: trace.SpanMapAttempt, Cat: trace.CatMap,
				Start: att.startTime, End: now, Job: j.ID, Task: t.Index,
				Attempt: att.seq, Node: tt.node.ID, Speculative: att.speculative,
				Outcome: trace.OutcomeFailed})
			tr.Instant(trace.EventMapFailed, trace.CatMap, now, j.ID, t.Index, tt.node.ID)
			tr.Inc(trace.CounterMapFailed, 1)
		}
		switch {
		case t.Attempts >= maxTaskAttempts:
			jt.failJob(j, fmt.Sprintf("map task %d failed %d times: %v", t.Index, t.Attempts, err))
		case len(t.running) > 0:
			// A sibling (speculative) attempt is still going; let it
			// finish the task instead of requeueing.
		default:
			// Requeue for re-execution elsewhere.
			t.enqueued = jt.eng.Now()
			j.pushPending(t)
		}
		jt.assign(tt)
		return
	}

	t.completed = true
	// Kill any racing sibling attempts; this one won.
	for len(t.running) > 0 {
		jt.killAttempt(t.running[0])
	}

	// Partition output by key and stash for the shuffle, tagged with
	// the producing node. A single-reduce job's output is one chunk.
	// Otherwise byPart is indexed by partition (a map here was
	// allocation-heavy — see BenchmarkMapCompletion); chunks are
	// counted first so each backing array is allocated exactly once.
	//
	// A shared collector — an async-scan result the cache or a
	// singleflight future may hold, or an inline scan memoised in
	// the cache — is immutable and outlives this job, so a
	// single-reduce chunk references its pairs (capacity-capped)
	// instead of copying them.
	//
	// Every chunk inherits the collector's sorted hint: a partition
	// of a key-sorted output is key-sorted too.
	pairs := out.Pairs()
	shared := scan != nil || (jt.cfg.MapOutputCache != nil && j.Spec.MemoKey != "")
	if j.numReduces == 1 {
		c := mapChunk{node: tt.node.ID, bytes: out.Bytes(), sorted: !out.unsorted}
		if shared {
			c.pairs = pairs[:len(pairs):len(pairs)]
		} else {
			c.pairs = append(make([]KeyValue, 0, len(pairs)), pairs...)
		}
		if len(c.pairs) > 0 {
			j.mapOutput[0] = append(j.mapOutput[0], c)
		}
	} else {
		byPart := make([]mapChunk, j.numReduces)
		counts := make([]int, j.numReduces)
		for _, kv := range pairs {
			counts[partition(kv.Key, j.numReduces)]++
		}
		for p, n := range counts {
			if n > 0 {
				byPart[p] = mapChunk{node: tt.node.ID, pairs: make([]KeyValue, 0, n), sorted: !out.unsorted}
			}
		}
		for _, kv := range pairs {
			c := &byPart[partition(kv.Key, j.numReduces)]
			c.pairs = append(c.pairs, kv)
			c.bytes += int64(len(kv.Key) + kv.Value.EncodedSize())
		}
		for p := range byPart {
			if len(byPart[p].pairs) > 0 {
				j.mapOutput[p] = append(j.mapOutput[p], byPart[p])
			}
		}
	}
	j.Counters.MapOutputRecords += int64(out.Len())
	j.Counters.MapOutputBytes += out.Bytes()
	j.Counters.mergeUser(out.UserCounters())
	// An exclusively owned collector's pairs were copied into the
	// chunks above; recycle its backing array.
	if !shared {
		recycleCollector(out)
	}

	// Input accounting matches what the attempt's read phase charged:
	// the effective record/byte counts of the job's input path.
	ch := att.charge
	j.Counters.MapInputRecords += ch.records
	j.Counters.BytesRead += int64(ch.bytes)
	j.Counters.CompletedMaps++
	j.mapDurations = append(j.mapDurations, jt.eng.Now()-att.startTime)
	if att.local {
		j.Counters.LocalMaps++
		jt.totalLocalMaps++
	} else {
		j.Counters.NonLocalMaps++
		jt.totalNonLocalMaps++
	}

	jt.emit(TaskEvent{Type: EventMapFinished, JobID: j.ID, TaskIndex: t.Index,
		Node: tt.node.ID, Attempt: t.Attempts, Speculative: att.speculative})
	if tr := jt.tracer; tr.Enabled() {
		now := jt.eng.Now()
		tr.Record(trace.Span{Name: trace.SpanMapAttempt, Cat: trace.CatMap,
			Start: att.startTime, End: now, Job: j.ID, Task: t.Index,
			Attempt: att.seq, Node: tt.node.ID, Speculative: att.speculative,
			Outcome: trace.OutcomeOK})
		tr.Observe(trace.HistMapDuration, now-att.startTime)
		if att.local {
			tr.Inc(trace.CounterMapLocal, 1)
		} else {
			tr.Inc(trace.CounterMapNonLocal, 1)
		}
	}
	jt.maybeStartReducePhase(j)
	// Out-of-band scheduling opportunity: the freed slot can be reused
	// without waiting for the next periodic heartbeat.
	jt.assign(tt)
}

// execMapper executes the user's map logic over the split, consulting
// the memoization cache first for jobs that declare a MemoKey. The
// simulated I/O and CPU for the attempt were already charged by the
// phase chain, so a cache hit only skips the real record scan.
func (jt *JobTracker) execMapper(t *MapTask) (*Collector, error) {
	if cache, key := jt.cfg.MapOutputCache, jt.effMemo(t.Job); cache != nil && key != "" {
		src := t.Split.Block.Source
		if out, ok := cache.lookup(src, key); ok {
			jt.tracer.Inc(trace.CounterMemoHits, 1)
			return out, nil
		}
		jt.tracer.Inc(trace.CounterMemoMisses, 1)
		out, err := jt.runMapper(t)
		if err == nil {
			cache.store(src, key, out)
		}
		return out, err
	}
	return jt.runMapper(t)
}

// runMapper executes the user's map logic over the split for real,
// inline on the simulator thread. The scanned source is the job's
// input-path view of the split (the pruned view under skip/index).
func (jt *JobTracker) runMapper(t *MapTask) (*Collector, error) {
	return scanSplit(t.Job.Spec, t.Job.Conf, t.Index, jt.scanSource(t.Job, t.Split))
}

// scanSplit executes the user's map logic (and combiner) over one
// split. It is a pure function of its arguments — all of them fixed
// when a map attempt's phase chain starts — so the scan executor may
// run it on a pool worker concurrently with the simulation; the inline
// path calls it on the simulator thread.
func scanSplit(spec JobSpec, conf *JobConf, splitIndex int, src data.Source) (*Collector, error) {
	mapper := spec.NewMapper(conf)
	if mapper == nil {
		return nil, fmt.Errorf("mapreduce: NewMapper returned nil")
	}
	ctx := &TaskContext{Conf: conf, SplitIndex: splitIndex, Source: src}
	out := newCollector()

	if sm, ok := mapper.(SplitMapper); ok {
		if err := sm.MapSplit(ctx, out); err != nil {
			recycleCollector(out)
			return nil, err
		}
		return combine(spec, conf, out)
	}

	if su, ok := mapper.(SetupMapper); ok {
		if err := su.Setup(ctx); err != nil {
			recycleCollector(out)
			return nil, err
		}
	}
	var scanErr error
	src.Scan(func(rec data.Record) bool {
		if err := mapper.Map(rec, out); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	if scanErr != nil {
		recycleCollector(out)
		return nil, scanErr
	}
	if su, ok := mapper.(SetupMapper); ok {
		if err := su.Cleanup(out); err != nil {
			recycleCollector(out)
			return nil, err
		}
	}
	return combine(spec, conf, out)
}

// combine runs the job's combiner (when configured) over one map
// task's output, grouping by key, and returns the combined collector.
// User counters survive the combine; the pre-combine collector is
// recycled once its pairs have been copied out.
func combine(spec JobSpec, conf *JobConf, out *Collector) (*Collector, error) {
	if spec.NewCombiner == nil || out.Len() == 0 {
		return out, nil
	}
	combiner := spec.NewCombiner(conf)
	if combiner == nil {
		return out, nil
	}
	pairs := append([]KeyValue(nil), out.Pairs()...)
	sortPairsStable(pairs)
	combined := newCollector()
	combined.counters = out.counters
	out.counters = nil // ownership moved to combined
	recycleCollector(out)
	for i := 0; i < len(pairs); {
		k := pairs[i].Key
		var vals []data.Record
		for i < len(pairs) && pairs[i].Key == k {
			vals = append(vals, pairs[i].Value)
			i++
		}
		if err := combiner.Reduce(k, vals, combined); err != nil {
			return nil, fmt.Errorf("combiner: %w", err)
		}
	}
	return combined, nil
}

// launchReduce runs a reduce attempt: slot occupied → startup → shuffle
// (remote chunks over the network) → sort CPU → user reducer → output
// write to local disk → completion.
func (jt *JobTracker) launchReduce(tt *TaskTracker, t *ReduceTask) {
	j := t.Job
	for i, x := range j.pendingReduces {
		if x == t {
			j.pendingReduces = append(j.pendingReduces[:i], j.pendingReduces[i+1:]...)
			break
		}
	}
	j.runningReduces[t] = struct{}{}
	t.Attempts++
	t.Node = tt.node.ID
	tt.changeReduceSlots(+1)
	jt.occupiedReduceSlots++
	jt.emit(TaskEvent{Type: EventReduceStarted, JobID: j.ID, TaskIndex: t.Index,
		Node: tt.node.ID, Attempt: t.Attempts})

	chunks := j.mapOutput[t.Index]
	var shuffleBytes, totalPairs int64
	for _, c := range chunks {
		totalPairs += int64(len(c.pairs))
		if c.node != tt.node.ID {
			shuffleBytes += c.bytes
		}
	}

	// Phase spans: mark(name) closes the interval elapsed since the
	// previous mark under that name, walking startup → shuffle → sort →
	// reduce CPU → output write as each stage's continuation fires.
	tr := jt.tracer
	attStart := jt.eng.Now()
	attNo := t.Attempts
	phaseT := attStart
	mark := func(name string) {
		if !tr.Enabled() {
			return
		}
		now := jt.eng.Now()
		tr.Record(trace.Span{Name: name, Cat: trace.CatReduce, Start: phaseT, End: now,
			Job: j.ID, Task: t.Index, Attempt: attNo, Node: tt.node.ID})
		phaseT = now
	}

	finish := func() {
		mark(trace.SpanOutputWrite)
		if tr.Enabled() {
			now := jt.eng.Now()
			tr.Record(trace.Span{Name: trace.SpanReduceAttempt, Cat: trace.CatReduce,
				Start: attStart, End: now, Job: j.ID, Task: t.Index, Attempt: attNo,
				Node: tt.node.ID, Outcome: trace.OutcomeOK})
			tr.Observe(trace.HistReduceDuration, now-attStart)
		}
		jt.finishReduce(tt, t)
	}

	writeOutput := func(outBytes int64) func() {
		return func() {
			mark(trace.SpanReduceCPU)
			// Output written to one of the node's disks (round-robin by
			// task index).
			disk := tt.node.Disks[t.Index%len(tt.node.Disks)]
			disk.Submit(float64(outBytes), finish)
		}
	}
	runReducer := func() {
		mark(trace.SpanSort)
		out, err := jt.execReducer(t, chunks)
		if err != nil {
			tr.Record(trace.Span{Name: trace.SpanReduceAttempt, Cat: trace.CatReduce,
				Start: attStart, End: jt.eng.Now(), Job: j.ID, Task: t.Index, Attempt: attNo,
				Node: tt.node.ID, Outcome: trace.OutcomeFailed})
			jt.failJob(j, fmt.Sprintf("reduce task %d failed: %v", t.Index, err))
			tt.changeReduceSlots(-1)
			jt.occupiedReduceSlots--
			delete(j.runningReduces, t)
			jt.assign(tt)
			return
		}
		t.Job.Counters.ReduceInputRecs += totalPairs
		t.Job.Counters.ReduceOutputRecs += int64(out.Len())
		t.Job.Counters.mergeUser(out.UserCounters())
		outBytes := out.Bytes()
		if j.output == nil {
			// The first reduce to finish hands its array to the job.
			j.output = out.Pairs()
		} else {
			j.output = append(j.output, out.Pairs()...)
			jt.keepOutput(out.Pairs())
		}
		// Reduce CPU for the user function, then the output write.
		work := float64(totalPairs) * reduceCPUPerRecordS
		tt.node.CPU.Submit(work, writeOutput(outBytes))
	}
	sortPhase := func() {
		mark(trace.SpanShuffle)
		work := float64(totalPairs) * sortCPUPerRecordS
		tt.node.CPU.Submit(work, runReducer)
	}
	shufflePhase := func() {
		mark(trace.SpanStartup)
		j.Counters.ShuffleBytes += shuffleBytes
		jt.cluster.Network.Submit(float64(shuffleBytes), sortPhase)
	}
	jt.eng.After(jt.cfg.Costs.TaskStartupS, shufflePhase)
}

// execReducer groups the partition's pairs by key and runs the user's
// reduce logic for real. The output is built in an array from the
// tracker's kept outputs when one fits (see reduceGroups).
func (jt *JobTracker) execReducer(t *ReduceTask, chunks []mapChunk) (*Collector, error) {
	j := t.Job
	var reducer Reducer
	if j.Spec.NewReducer != nil {
		reducer = j.Spec.NewReducer(j.Conf)
	}
	if reducer == nil {
		reducer = IdentityReducer
	}
	out := new(Collector)
	if err := jt.reduceGroups(chunks, reducer, out); err != nil {
		return nil, err
	}
	return out, nil
}

// reduceGroups feeds one partition's chunks to reducer key group by key
// group, in the order a stable key sort of the chunks'
// concatenation gives (Hadoop's merge: equal keys keep chunk order).
// When every chunk is key-sorted — hinted sorted at map completion, or
// checked here — and successive chunks' key ranges are in order, the
// concatenation already is that order and the chunks are walked in
// place; sorted chunks with overlapping ranges are merged
// (mergeSortedChunks); anything else is sorted (sortPairs).
//
// out starts empty and gets the smallest kept output array that holds
// the output's bound: min(pairs, limit) for a PrefixReducer, the pair
// count for any other reducer. A PrefixReducer's output is copied from
// those runs by reducePrefix, into a fresh array of exactly the bound
// when none is kept. Any other reducer grows out itself as it emits. It
// gets its values in one exactly sized buffer, and each group is a
// capacity-capped sub-slice of it, so a reducer that appends to its
// values reallocates instead of overwriting the next group. Groups stay
// valid after the call: nothing reuses the buffer.
func (jt *JobTracker) reduceGroups(chunks []mapChunk, reducer Reducer, out *Collector) error {
	total, sorted, ordered := 0, true, true
	var bytes int64
	var last *KeyValue // the previous non-empty chunk's last pair
	for _, c := range chunks {
		if len(c.pairs) == 0 {
			continue
		}
		total += len(c.pairs)
		bytes += c.bytes
		if !sorted {
			continue
		}
		for i := 1; !c.sorted && i < len(c.pairs); i++ {
			if c.pairs[i-1].Key > c.pairs[i].Key {
				sorted = false
				break
			}
		}
		if last != nil && last.Key > c.pairs[0].Key {
			ordered = false
		}
		last = &c.pairs[len(c.pairs)-1]
	}
	runs := chunks
	switch {
	case !sorted:
		runs = []mapChunk{{pairs: sortPairs(chunks), bytes: bytes}}
	case !ordered:
		runs = []mapChunk{{pairs: mergeSortedChunks(chunks, total), bytes: bytes}}
	}
	if pr, ok := reducer.(PrefixReducer); ok {
		if limit, ok := pr.PrefixLimit(); ok {
			bound := total
			if limit < int64(total) {
				bound = int(max(limit, 0))
			}
			out.pairs = jt.takeOutput(bound)
			out.Grow(bound)
			reducePrefix(runs, limit, out)
			return nil
		}
	}
	out.pairs = jt.takeOutput(total)
	vals := make([]data.Record, total)
	n, start := 0, 0
	var key string
	for _, c := range runs {
		for _, kv := range c.pairs {
			if n > start && kv.Key != key {
				if err := reducer.Reduce(key, vals[start:n:n], out); err != nil {
					return err
				}
				start = n
			}
			key = kv.Key
			vals[n] = kv.Value
			n++
		}
	}
	if n > start {
		return reducer.Reduce(key, vals[start:n:n], out)
	}
	return nil
}

// mergeSortedChunks merges one partition's key-sorted chunk runs, total
// pairs in all, into a single key-sorted slice with exact
// preallocation: a k-way merge on a binary min-heap of chunk heads,
// O(n log k). Ties across chunks resolve to the lower chunk position,
// which together with the per-run order reproduces exactly what
// sortPairs (stable sort of the concatenation in chunk order) would
// produce — without the O(n log n) sort on the reduce hot path. Chunks
// whose key ranges are already in order need no merge at all;
// reduceGroups walks them in place.
func mergeSortedChunks(chunks []mapChunk, total int) []KeyValue {
	pairs := make([]KeyValue, 0, total)
	type head struct {
		chunk int
		idx   int
	}
	heap := make([]head, 0, len(chunks))
	less := func(a, b head) bool {
		ka, kb := chunks[a.chunk].pairs[a.idx].Key, chunks[b.chunk].pairs[b.idx].Key
		if ka != kb {
			return ka < kb
		}
		return a.chunk < b.chunk
	}
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(heap) {
				return
			}
			if r := l + 1; r < len(heap) && less(heap[r], heap[l]) {
				l = r
			}
			if !less(heap[l], heap[i]) {
				return
			}
			heap[i], heap[l] = heap[l], heap[i]
			i = l
		}
	}
	for c := range chunks {
		if len(chunks[c].pairs) > 0 {
			heap = append(heap, head{chunk: c})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(heap) > 0 && len(pairs) < total {
		top := heap[0]
		run := chunks[top.chunk].pairs
		// Gallop: drain the winning chunk while its next key still beats
		// every other head (only the runner-up matters in a binary heap).
		stop := len(run)
		if len(heap) > 1 {
			next := heap[1]
			if len(heap) > 2 && less(heap[2], next) {
				next = heap[2]
			}
			nk := chunks[next.chunk].pairs[next.idx].Key
			for i := top.idx; i < stop; i++ {
				k := run[i].Key
				if k > nk || (k == nk && top.chunk > next.chunk) {
					stop = i
					break
				}
			}
		}
		pairs = append(pairs, run[top.idx:stop]...)
		if stop < len(run) {
			heap[0].idx = stop
			siftDown(0)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			if len(heap) > 0 {
				siftDown(0)
			}
		}
	}
	return pairs
}

// reducePrefix appends each key group's first limit pairs of the
// key-sorted, in-order runs to out. A run in which no group can pass
// limit is appended whole and adds its byte count. A run under one key,
// which every sampling job's runs are, keeps a prefix: it is appended
// in one copy and adds the kept pairs' sizes, or none once its group is
// full. Only the kept pairs of any other run are sized, through Emit.
func reducePrefix(runs []mapChunk, limit int64, out *Collector) {
	var key string // the current group's key
	var seen int64 // the current group's values so far
	for _, c := range runs {
		n := int64(len(c.pairs))
		if n == 0 {
			continue
		}
		if first := c.pairs[0].Key; first != key {
			key, seen = first, 0
		}
		if seen+n > limit && c.pairs[n-1].Key == key {
			if seen < limit {
				kept := c.pairs[:limit-seen]
				out.pairs = append(out.pairs, kept...)
				for _, kv := range kept {
					out.bytes += int64(len(kv.Key) + kv.Value.EncodedSize())
				}
			}
			seen += n
			continue
		}
		if seen+n > limit {
			for _, kv := range c.pairs {
				if kv.Key != key {
					key, seen = kv.Key, 0
				}
				if seen < limit {
					out.Emit(kv.Key, kv.Value)
				}
				seen++
			}
			continue
		}
		out.pairs = append(out.pairs, c.pairs...)
		out.bytes += c.bytes
		if last := c.pairs[n-1].Key; last == key {
			seen += n
		} else {
			key, seen = last, 0
			for i := n - 1; i >= 0 && c.pairs[i].Key == last; i-- {
				seen++
			}
		}
	}
}

// finishReduce reports a reduce completion and finalises the job when
// all partitions are done.
func (jt *JobTracker) finishReduce(tt *TaskTracker, t *ReduceTask) {
	j := t.Job
	delete(j.runningReduces, t)
	tt.changeReduceSlots(-1)
	jt.occupiedReduceSlots--
	if j.Done() {
		jt.assign(tt)
		return
	}
	j.reducesDone++
	jt.emit(TaskEvent{Type: EventReduceFinished, JobID: j.ID, TaskIndex: t.Index,
		Node: tt.node.ID, Attempt: t.Attempts})
	if j.reducesDone == j.numReduces {
		jt.completeJob(j)
	}
	jt.assign(tt)
}
