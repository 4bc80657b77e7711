package mapreduce

import (
	"fmt"
	"sort"
)

// JobState is the lifecycle state of a job.
type JobState uint8

// Job lifecycle. A dynamic job stays in the map phase until its Input
// Provider declares end-of-input AND all scheduled maps finish; only
// then does the reduce phase begin (§III-A).
const (
	// StateMapPhase: maps pending/running, or awaiting end-of-input.
	StateMapPhase JobState = iota
	// StateReducePhase: all maps done and input closed; reduces running.
	StateReducePhase
	// StateSucceeded: all reduces finished.
	StateSucceeded
	// StateFailed: a task exhausted its attempts.
	StateFailed
)

// String returns the state name.
func (s JobState) String() string {
	switch s {
	case StateMapPhase:
		return "MAP"
	case StateReducePhase:
		return "REDUCE"
	case StateSucceeded:
		return "SUCCEEDED"
	case StateFailed:
		return "FAILED"
	default:
		return fmt.Sprintf("JobState(%d)", uint8(s))
	}
}

// Counters aggregates the statistics Hadoop reports for a job; the
// paper's Input Provider consumes MapInputRecords and MapOutputRecords
// to estimate selectivity.
type Counters struct {
	MapInputRecords   int64
	MapOutputRecords  int64
	MapOutputBytes    int64
	CompletedMaps     int64
	FailedMapAttempts int64
	LocalMaps         int64
	NonLocalMaps      int64
	BytesRead         int64
	ShuffleBytes      int64
	ReduceInputRecs   int64
	ReduceOutputRecs  int64
	// SpeculativeLaunches counts backup attempts started; KilledAttempts
	// counts attempts cancelled mid-flight (race losers).
	SpeculativeLaunches int64
	KilledAttempts      int64
	// ScanBlocksRead / ScanBlocksSkipped count statistics sub-blocks
	// read and zone-map-skipped across the job's map attempts (every
	// attempt that reaches its read phase pays, like disk I/O). Under
	// the full input path nothing is ever skipped.
	ScanBlocksRead    int64
	ScanBlocksSkipped int64
	// User holds user-defined counters incremented by map/reduce
	// functions via Collector.Inc.
	User map[string]int64
}

// UserCounter returns a user-defined counter's value (0 if never
// incremented).
func (c *Counters) UserCounter(name string) int64 { return c.User[name] }

// mergeUser folds a task's user counters into the job's.
func (c *Counters) mergeUser(m map[string]int64) {
	if len(m) == 0 {
		return
	}
	if c.User == nil {
		c.User = make(map[string]int64, len(m))
	}
	for k, v := range m {
		c.User[k] += v
	}
}

// MapTask is one unit of map input: a split awaiting or undergoing
// processing, possibly by several racing attempts.
type MapTask struct {
	Job   *Job
	Index int // ordinal among the job's scheduled splits
	Split Split
	// Attempts counts launches so far (failures requeue the task;
	// speculation races a second attempt).
	Attempts int
	// Local records whether the latest attempt reads a node-local
	// replica.
	Local bool
	// Node is the node of the latest attempt, -1 when idle.
	Node int

	completed bool
	running   []*mapAttempt
	// runningBuf backs running for the usual single attempt, so a
	// launch does not allocate it.
	runningBuf [1]*mapAttempt
	// enqueued is when the task last entered the pending queue (at
	// AddSplits or requeue-after-failure); queue-wait spans measure from
	// it to the next non-speculative launch.
	enqueued float64

	// pending is set while the task waits in its job's pending queue,
	// linked through prev and next. picked marks it chosen by the
	// AssignMaps call in progress (see Job.unpicked).
	pending, picked bool
	prev, next      *MapTask
}

// ReduceTask is one reduce partition's task.
type ReduceTask struct {
	Job      *Job
	Index    int
	Attempts int
	Node     int
}

// mapChunk is one completed map task's output destined for a reduce
// partition, tagged with the producing node for shuffle cost accounting.
// bytes is the encoded size of pairs (the sum of len(key) +
// EncodedSize), and sorted is set when the pairs are known to be in
// key order, so reduceGroups need not check them.
type mapChunk struct {
	node   int
	pairs  []KeyValue
	bytes  int64
	sorted bool
}

// Job is a submitted MapReduce job.
type Job struct {
	ID   int
	Spec JobSpec
	Conf *JobConf
	Name string
	User string

	// Dynamic jobs receive splits incrementally and must be closed via
	// EndOfInput before the reduce phase can start.
	Dynamic    bool
	endOfInput bool

	state      JobState
	numReduces int

	// pendHead..pendTail is the queue of map tasks awaiting a slot, in
	// the order the schedulers see it: splits in the order they were
	// added, a failed task requeued at the back. nPending counts it and
	// nPicked counts its tasks marked picked.
	pendHead, pendTail *MapTask
	nPending, nPicked  int
	runningMaps        map[*MapTask]struct{}
	scheduled          int // total splits handed to the job so far

	// mapOutput[r] collects chunks for reduce partition r.
	mapOutput      [][]mapChunk
	reduceTasks    []*ReduceTask
	pendingReduces []*ReduceTask
	runningReduces map[*ReduceTask]struct{}
	reducesDone    int

	output []KeyValue

	// mapDurations records completed map attempt durations, feeding the
	// speculative-execution median.
	mapDurations []float64

	Counters Counters

	SubmitTime  float64
	MapDoneTime float64
	FinishTime  float64

	failure string
}

// State returns the job's lifecycle state.
func (j *Job) State() JobState { return j.state }

// Failure returns the failure description for StateFailed jobs.
func (j *Job) Failure() string { return j.failure }

// Done reports whether the job reached a terminal state.
func (j *Job) Done() bool { return j.state == StateSucceeded || j.state == StateFailed }

// ScheduledMaps returns the number of splits handed to the job so far.
func (j *Job) ScheduledMaps() int { return j.scheduled }

// CompletedMaps returns the count of finished map tasks.
func (j *Job) CompletedMaps() int { return int(j.Counters.CompletedMaps) }

// Output returns the job's reduce output. It is valid once Done and
// until JobTracker.Retire, which clears the array and keeps it for a
// later job's reduce; a retired job's Output is nil.
func (j *Job) Output() []KeyValue { return j.output }

// ResponseTime returns FinishTime - SubmitTime (valid once Done).
func (j *Job) ResponseTime() float64 { return j.FinishTime - j.SubmitTime }

// pushPending appends t to the back of the pending queue.
func (j *Job) pushPending(t *MapTask) {
	t.pending, t.prev, t.next = true, j.pendTail, nil
	if j.pendTail != nil {
		j.pendTail.next = t
	} else {
		j.pendHead = t
	}
	j.pendTail = t
	j.nPending++
}

// takePending removes the given pending task in O(1); the rest of the
// queue keeps its order.
func (j *Job) takePending(t *MapTask) {
	if !t.pending || t.Job != j {
		panic("mapreduce: task not pending")
	}
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		j.pendHead = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		j.pendTail = t.prev
	}
	t.pending, t.prev, t.next = false, nil, nil
	j.nPending--
}

// clearPending empties the pending queue.
func (j *Job) clearPending() {
	for j.pendHead != nil {
		j.takePending(j.pendHead)
	}
}

// unpicked returns how many pending tasks the AssignMaps call in
// progress has not picked yet. A scheduler marks each task it returns
// (pick) instead of taking it out of the queue, so the queue stays in
// order, and clears the marks (unpick) before it returns.
func (j *Job) unpicked() int { return j.nPending - j.nPicked }

// pick marks a pending task as chosen by the AssignMaps call in
// progress.
func (t *MapTask) pick() {
	t.picked = true
	t.Job.nPicked++
}

// unpick clears the pick marks of an AssignMaps call's result.
func unpick(picks []*MapTask) {
	for _, t := range picks {
		t.picked = false
		t.Job.nPicked--
	}
}

// nextPending returns the first pending task not yet picked, or nil.
func (j *Job) nextPending() *MapTask {
	for t := j.pendHead; t != nil; t = t.next {
		if !t.picked {
			return t
		}
	}
	return nil
}

// localPendingTask returns the first pending task not yet picked whose
// split has a replica on the node, or nil.
func (j *Job) localPendingTask(node int) *MapTask {
	for t := j.pendHead; t != nil; t = t.next {
		if t.picked {
			continue
		}
		if _, ok := t.Split.Block.LocalTo(node); ok {
			return t
		}
	}
	return nil
}

// medianMapDuration returns the median completed-map duration once at
// least speculativeMinCompleted maps finished.
func (j *Job) medianMapDuration() (float64, bool) {
	n := len(j.mapDurations)
	if n < speculativeMinCompleted {
		return 0, false
	}
	sorted := append([]float64(nil), j.mapDurations...)
	sort.Float64s(sorted)
	return sorted[n/2], true
}

// mapPhaseComplete reports whether the reduce phase may begin: every
// scheduled map finished and (for dynamic jobs) end-of-input declared.
func (j *Job) mapPhaseComplete() bool {
	return j.endOfInput && j.nPending == 0 && len(j.runningMaps) == 0 &&
		j.state == StateMapPhase
}
