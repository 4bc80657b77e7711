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

// ReduceTask is one reduce partition's task. It runs one attempt: a
// failed reducer fails its job, so a reduce is never re-executed. The
// attempt's state is therefore part of the task, and a launch allocates
// nothing.
type ReduceTask struct {
	Job      *Job
	Index    int
	Attempts int

	// att is the attempt, its next bound to advance at Submit. chunks
	// are the partition's map outputs, pairs their pair count and
	// shuffleBytes the bytes of those from other nodes; outBytes is the
	// reducer output's size, which the output write charges.
	att          attempt
	chunks       []mapChunk
	pairs        int64
	shuffleBytes int64
	outBytes     int64
	// out is the attempt's output collector; the attempt hands its pairs
	// on as it ends.
	out Collector
}

// mapChunk is one completed map task's output destined for a reduce
// partition, tagged with the producing node for shuffle cost accounting.
// bytes is the encoded size of pairs (the sum of len(key) +
// EncodedSize), and sorted is set when the pairs are known to be in
// key order, so reduceGroups need not check them. out is the map output
// collector when pairs are its pairs from the first on (a shared
// single-reduce output), so that its checkpoints size a prefix. The
// fields are laid out to keep the struct at 48 bytes: a job's chunk
// arrays grow one chunk per completed map.
type mapChunk struct {
	pairs  []KeyValue
	bytes  int64
	out    *Collector
	node   int32
	sorted bool
}

// prefixBytes returns the encoded size of the chunk's first n pairs:
// its collector's last checkpoint at or before n when it has one, plus
// the at most markEvery-1 pairs after it, each sized.
func (c *mapChunk) prefixBytes(n int) int64 {
	var b int64
	i := 0
	if c.out != nil {
		if m := min(n/markEvery, len(c.out.marks)); m > 0 {
			i, b = m*markEvery, c.out.marks[m-1]
		}
	}
	for _, kv := range c.pairs[i:n] {
		b += int64(len(kv.Key) + kv.Value.EncodedSize())
	}
	return b
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
	reducesDone    int

	output []KeyValue

	// memo is the job's effective memo key (JobTracker.effMemo) and
	// memoTab its table in the runtime's MapOutputCache, both resolved
	// at Submit: "" and nil when the job does not memoise.
	memo    string
	memoTab *memoTable

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
