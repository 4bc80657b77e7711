package mapreduce

import (
	"fmt"
	"slices"

	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/mapreduce/executor"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/trace"
)

// attempt is what map and reduce attempts share: where and when the
// attempt runs, the phase span it has open, and its stage chain. Each
// kind's advance ends the stage in progress and starts the next; next
// is advance, bound once, and is the callback every stage's timer or
// resource demand fires.
type attempt struct {
	tt  *TaskTracker
	job *Job
	// phase/phaseStart track the open trace phase span; phase is ""
	// when tracing is disabled or no phase is open.
	phase      string
	phaseStart float64
	startTime  float64
	next       func()
	// index is the task's; seq is the attempt ordinal (the task's
	// Attempts at launch, which later launches advance).
	index, seq  int
	stage       attemptStage
	reduce      bool
	speculative bool
}

// attemptStage is the step an attempt is in: startup, then a map's read
// and CPU stages or a reduce's shuffle, sort, reduce CPU and output write.
type attemptStage uint8

const (
	stageStartup attemptStage = iota
	stageDiskRead
	stageNetRead
	stageCPU
	stageShuffle
	stageSort
	stageReduceCPU
	stageOutputWrite
)

// span returns a span of the attempt's, from start to end.
func (a *attempt) span(name string, start, end float64, outcome string) trace.Span {
	cat := trace.CatMap
	if a.reduce {
		cat = trace.CatReduce
	}
	return trace.Span{Name: name, Cat: cat, Start: start, End: end, Job: a.job.ID, Task: a.index,
		Attempt: a.seq, Node: a.tt.node.ID, Speculative: a.speculative, Outcome: outcome}
}

// tracePhase closes the attempt's open phase span, if any, and opens
// next ("" closes without opening). No-op when tracing is disabled.
func (a *attempt) tracePhase(next string) {
	jt := a.tt.jt
	if !jt.tracer.Enabled() {
		return
	}
	now := jt.eng.Now()
	if a.phase != "" {
		jt.tracer.Record(a.span(a.phase, a.phaseStart, now, ""))
	}
	a.phase, a.phaseStart = next, now
}

// end records the attempt's enclosing map-attempt or reduce-attempt
// span, from its start to now, and returns now.
func (a *attempt) end(outcome string) float64 {
	jt := a.tt.jt
	now := jt.eng.Now()
	if jt.tracer.Enabled() {
		name := trace.SpanMapAttempt
		if a.reduce {
			name = trace.SpanReduceAttempt
		}
		jt.tracer.Record(a.span(name, a.startTime, now, outcome))
	}
	return now
}

// submit enters stage by demanding work from res; the demand's
// completion calls next.
func (a *attempt) submit(stage attemptStage, res *sim.SharedResource, work float64) *sim.Demand {
	a.stage = stage
	return res.Submit(work, a.next)
}

// mapAttempt is one execution of a MapTask on a tracker. A task may
// have a second, speculative attempt racing the first; the loser is
// killed mid-flight. Its fields are laid out to keep it at 184 bytes or
// less, in the 192-byte size class: every launch allocates one.
type mapAttempt struct {
	attempt
	task *MapTask
	loc  dfs.Location
	// charge is the read cost fixed at launch; the read phase and the
	// completion accounting both use it.
	charge scanCharge

	// in-flight stage handles for cancellation
	timer  *sim.Event
	res    *sim.SharedResource
	demand *sim.Demand

	// scan is the attempt's asynchronous record scan on the executor
	// pool (nil when the scan runs inline: no pool, or an impure job).
	// A killed or superseded attempt simply abandons the handle — pure
	// results are reusable, so the pool finishes the work in the
	// background and memoises it for whoever needs it next.
	scan *executor.Future

	local, killed bool
}

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

	loc, local := t.Split.Block.LocalTo(tt.node.ID)
	if !local {
		loc = t.Split.Block.Primary()
	}
	att := &mapAttempt{
		attempt: attempt{tt: tt, job: j, startTime: jt.eng.Now(), index: t.Index, seq: t.Attempts,
			speculative: speculative},
		task:   t,
		loc:    loc,
		charge: jt.scanCharge(j, t.Split),
		local:  local,
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
			tr.Record(att.span(trace.SpanQueueWait, t.enqueued, att.startTime, ""))
			tr.Observe(trace.HistMapQueueWait, att.startTime-t.enqueued)
		}
		tr.Inc(trace.CounterMapAttempts, 1)
	}
	att.tracePhase(trace.SpanStartup)
	att.timer = jt.eng.After(jt.cfg.Costs.TaskStartupS, att.next)
}

// advance ends the attempt's current stage and starts the next: startup
// → disk read (→ network read from a remote disk) → CPU → completion.
// A killed attempt's pending stage never starts.
func (att *mapAttempt) advance() {
	jt := att.tt.jt
	switch att.stage {
	case stageStartup:
		att.timer = nil
		if att.killed {
			return
		}
		// The read is committed: every attempt reaching its read phase
		// pays for its blocks, like the disk I/O below.
		ch := att.charge
		j := att.job
		j.Counters.ScanBlocksRead += ch.blocksRead
		j.Counters.ScanBlocksSkipped += ch.blocksSkipped
		if tr := jt.tracer; tr.Enabled() {
			tr.Inc(trace.CounterScanBlocksRead, ch.blocksRead)
			tr.Inc(trace.CounterScanBlocksSkipped, ch.blocksSkipped)
		}
		att.tracePhase(trace.SpanDiskRead)
		att.enter(stageDiskRead, jt.cluster.Node(att.loc.Node).Disks[att.loc.Disk], ch.bytes)
	case stageDiskRead:
		if att.killed {
			return
		}
		if !att.local {
			// Remote read: source disk, then the fabric.
			att.tracePhase(trace.SpanNetRead)
			att.enter(stageNetRead, jt.cluster.Network, att.charge.bytes)
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
	att.tracePhase(trace.SpanMapCPU)
	work := float64(att.charge.records) * att.tt.jt.cfg.Costs.MapCPUPerRecordS
	att.enter(stageCPU, att.tt.node.CPU, work)
}

// enter enters stage by demanding work from res, and keeps the demand
// for killAttempt to withdraw.
func (att *mapAttempt) enter(stage attemptStage, res *sim.SharedResource, work float64) {
	att.res, att.demand = res, att.submit(stage, res, work)
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
	j := att.job
	j.Counters.KilledAttempts++
	jt.emit(TaskEvent{Type: EventMapKilled, JobID: j.ID, TaskIndex: att.index,
		Node: att.tt.node.ID, Speculative: att.speculative})
	att.tracePhase("")
	now := att.end(trace.OutcomeKilled)
	if tr := jt.tracer; tr.Enabled() {
		tr.Instant(trace.EventMapKilled, trace.CatMap, now, j.ID, att.index, att.tt.node.ID)
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
	att.tracePhase("")
	jt.releaseAttempt(att)
	att.killed = true // no further stages may run
	scan := att.scan
	att.scan = nil

	if j.Done() || t.completed {
		// Job failed mid-flight, or a sibling attempt won the race in
		// the same instant; the slot is already free.
		att.end(trace.OutcomeLate)
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
		now := att.end(trace.OutcomeFailed)
		if tr := jt.tracer; tr.Enabled() {
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
	shared := scan != nil || j.memoTab != nil
	if j.numReduces == 1 {
		c := mapChunk{node: int32(tt.node.ID), bytes: out.Bytes(), sorted: !out.unsorted}
		if shared {
			c.pairs, c.out = pairs[:len(pairs):len(pairs)], out
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
				byPart[p] = mapChunk{node: int32(tt.node.ID), pairs: make([]KeyValue, 0, n), sorted: !out.unsorted}
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
	now := att.end(trace.OutcomeOK)
	if tr := jt.tracer; tr.Enabled() {
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
	if tab := t.Job.memoTab; tab != nil {
		src := t.Split.Block.Source
		if out, ok := tab.lookup(src); ok {
			jt.tracer.Inc(trace.CounterMemoHits, 1)
			return out, nil
		}
		jt.tracer.Inc(trace.CounterMemoMisses, 1)
		out, err := jt.runMapper(t)
		if err == nil {
			tab.store(src, out)
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

// launchReduce runs the task's attempt: slot occupied → startup →
// shuffle (remote chunks over the network) → sort CPU → user reducer →
// reduce CPU → output write to local disk → completion.
func (jt *JobTracker) launchReduce(tt *TaskTracker, t *ReduceTask) {
	j := t.Job
	for i, x := range j.pendingReduces {
		if x == t {
			j.pendingReduces = append(j.pendingReduces[:i], j.pendingReduces[i+1:]...)
			break
		}
	}
	t.Attempts++
	tt.changeReduceSlots(+1)
	jt.occupiedReduceSlots++
	jt.emit(TaskEvent{Type: EventReduceStarted, JobID: j.ID, TaskIndex: t.Index,
		Node: tt.node.ID, Attempt: t.Attempts})

	t.chunks = j.mapOutput[t.Index]
	for _, c := range t.chunks {
		t.pairs += int64(len(c.pairs))
		if int(c.node) != tt.node.ID {
			t.shuffleBytes += c.bytes
		}
	}
	a := &t.att
	a.tt, a.startTime, a.seq = tt, jt.eng.Now(), t.Attempts
	a.tracePhase(trace.SpanStartup)
	jt.eng.After(jt.cfg.Costs.TaskStartupS, a.next)
}

// advance ends the reduce attempt's current stage and starts the next:
// startup → shuffle → sort → the user reducer, then its CPU → output
// write → completion. A reducer error ends the attempt after the sort.
func (t *ReduceTask) advance() {
	a := &t.att
	jt := a.tt.jt
	switch a.stage {
	case stageStartup:
		a.tracePhase(trace.SpanShuffle)
		t.Job.Counters.ShuffleBytes += t.shuffleBytes
		a.submit(stageShuffle, jt.cluster.Network, float64(t.shuffleBytes))
	case stageShuffle:
		a.tracePhase(trace.SpanSort)
		a.submit(stageSort, a.tt.node.CPU, float64(t.pairs)*sortCPUPerRecordS)
	case stageSort:
		a.tracePhase("")
		out, err := jt.execReducer(t)
		if err != nil {
			jt.finishReduce(t, err)
			return
		}
		j := t.Job
		j.Counters.ReduceInputRecs += t.pairs
		j.Counters.ReduceOutputRecs += int64(out.Len())
		j.Counters.mergeUser(out.UserCounters())
		t.outBytes = out.Bytes()
		if j.output == nil {
			// The first reduce to finish hands its array to the job.
			j.output = out.Pairs()
		} else {
			j.output = append(j.output, out.Pairs()...)
			jt.keepOutput(out.Pairs())
		}
		*out = Collector{}
		// Reduce CPU for the user function, then the output write.
		a.tracePhase(trace.SpanReduceCPU)
		a.submit(stageReduceCPU, a.tt.node.CPU, float64(t.pairs)*reduceCPUPerRecordS)
	case stageReduceCPU:
		// Output written to one of the node's disks (round-robin by
		// task index).
		a.tracePhase(trace.SpanOutputWrite)
		a.submit(stageOutputWrite, a.tt.node.Disks[t.Index%len(a.tt.node.Disks)], float64(t.outBytes))
	case stageOutputWrite:
		a.tracePhase("")
		now := a.end(trace.OutcomeOK)
		jt.tracer.Observe(trace.HistReduceDuration, now-a.startTime)
		jt.finishReduce(t, nil)
	}
}

// execReducer groups the task's chunks by key and runs the user's
// reduce logic for real, into the task's collector. The output is built
// in an array from the tracker's kept outputs when one fits (see
// reduceGroups).
func (jt *JobTracker) execReducer(t *ReduceTask) (*Collector, error) {
	j := t.Job
	var reducer Reducer
	if j.Spec.NewReducer != nil {
		reducer = j.Spec.NewReducer(j.Conf)
	}
	if reducer == nil {
		reducer = IdentityReducer
	}
	out := &t.out
	if err := jt.reduceGroups(t.chunks, reducer, out); err != nil {
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
// in one copy and adds the kept pairs' size (prefixBytes), or none once
// its group is full. Only the kept pairs of any other run are sized,
// through Emit.
func reducePrefix(runs []mapChunk, limit int64, out *Collector) {
	var key string // the current group's key
	var seen int64 // the current group's values so far
	for i := range runs {
		c := &runs[i]
		n := int64(len(c.pairs))
		if n == 0 {
			continue
		}
		if first := c.pairs[0].Key; first != key {
			key, seen = first, 0
		}
		if seen+n > limit && c.pairs[n-1].Key == key {
			if seen < limit {
				out.pairs = append(out.pairs, c.pairs[:limit-seen]...)
				out.bytes += c.prefixBytes(int(limit - seen))
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

// finishReduce ends the task's attempt and frees its slot. A reducer
// error fails the job first; otherwise the last partition to finish
// completes the job once the slot is free.
func (jt *JobTracker) finishReduce(t *ReduceTask, err error) {
	j, tt := t.Job, t.att.tt
	if err != nil {
		t.att.end(trace.OutcomeFailed)
		jt.failJob(j, fmt.Sprintf("reduce task %d failed: %v", t.Index, err))
	}
	tt.changeReduceSlots(-1)
	jt.occupiedReduceSlots--
	if !j.Done() {
		j.reducesDone++
		jt.emit(TaskEvent{Type: EventReduceFinished, JobID: j.ID, TaskIndex: t.Index,
			Node: tt.node.ID, Attempt: t.Attempts})
		if j.reducesDone == j.numReduces {
			jt.completeJob(j)
		}
	}
	jt.assign(tt)
}
