package mapreduce

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/mapreduce/executor"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/vlog"
)

// The testbed's Hadoop 0.20 runtime settings and the costs no run
// varies. Hardware rates (disk/network bandwidth, core counts) are the
// cluster package's constants; these cover what runs on top.
const (
	// heartbeatIntervalS is the TaskTracker heartbeat period.
	heartbeatIntervalS = 1.0
	// mapsPerHeartbeat bounds map assignments per heartbeat (Hadoop
	// 0.20 assigned one; task completions trigger out-of-band
	// scheduling opportunities as well).
	mapsPerHeartbeat = 1
	// reducesPerHeartbeat bounds reduce assignments per heartbeat.
	reducesPerHeartbeat = 1
	// maxTaskAttempts fails the job after this many attempts of one
	// task (Hadoop default 4).
	maxTaskAttempts = 4
	// speculativeSlowdown is the straggler threshold multiplier: a
	// lone attempt that has run longer than this many times its job's
	// median map duration gets a backup.
	speculativeSlowdown = 2.0
	// speculativeMinCompleted is the number of completed maps before
	// a job's median map duration is trusted.
	speculativeMinCompleted = 3
	// sortCPUPerRecordS is CPU seconds per record of the shuffle-side
	// merge sort.
	sortCPUPerRecordS = 3e-6
	// reduceCPUPerRecordS is CPU seconds per reduce input record.
	reduceCPUPerRecordS = 2e-6
	// indexProbeBytes is the simulated I/O charged per match-admitting
	// sub-block under the indexed input path (one clustered-index probe
	// per block), on top of the matching records themselves.
	indexProbeBytes = 4096
	// maxKeptOutputs caps how many retired jobs' output arrays the
	// tracker keeps for later reduces to build their outputs in.
	maxKeptOutputs = 16
)

// Costs models the task execution costs that callers tune: attempt
// startup and per-record map CPU.
type Costs struct {
	// TaskStartupS is the per-attempt launch latency (JVM spin-up in
	// Hadoop 0.20; ~1 s).
	TaskStartupS float64
	// MapCPUPerRecordS is CPU seconds per input record (parse +
	// user map function).
	MapCPUPerRecordS float64
}

// DefaultCosts returns constants calibrated so a 2012-era node spends
// a few seconds per ~90 MB split, matching the paper's cluster scale.
func DefaultCosts() Costs {
	return Costs{TaskStartupS: 1.0, MapCPUPerRecordS: 2e-6}
}

// Config tunes the runtime.
type Config struct {
	// Costs are the tunable task execution costs.
	Costs Costs
	// FailureInjector, when set, is consulted as each map attempt
	// finishes; returning true fails the attempt. Tests use it to
	// exercise re-execution.
	FailureInjector func(j *Job, t *MapTask) bool
	// SpeculativeExecution enables backup attempts for straggling map
	// tasks (Hadoop's speculative execution): when a job has no pending
	// maps and a lone attempt has run longer than twice the job's median
	// map duration, a second attempt races it.
	SpeculativeExecution bool
	// Trace configures the tracing/metrics subsystem. Zero value means
	// disabled: the runtime keeps a nil *trace.Tracer and every
	// instrumentation site reduces to one nil check.
	Trace trace.Config
	// MapOutputCache, when non-nil, memoises map outputs for jobs that
	// declare a MemoKey (see JobSpec.MemoKey). The cache may be shared
	// across JobTrackers; the experiment harness shares one across all
	// cells of a sweep, where policies change scheduling but not
	// computation. Virtual-time costs are charged either way, so a hit
	// saves real wall-clock without perturbing simulated results.
	MapOutputCache *MapOutputCache
	// ScanExecutor, when non-nil, runs the real record scans of pure
	// map tasks (jobs declaring a MemoKey) on a worker pool off the
	// simulator thread: the scan is submitted when an attempt's phase
	// chain starts and joined when its completion event fires, so real
	// compute overlaps the simulation without perturbing virtual time
	// or results (see scan.go for the determinism contract). The pool
	// may be shared across JobTrackers; impure jobs always execute
	// inline. nil disables asynchronous scans.
	ScanExecutor *executor.Pool
	// InputPath is the runtime's default input-path mode (see the
	// InputPath* constants): how map tasks read their splits for jobs
	// declaring a FilterFingerprint. Empty or InputPathFull is the seed
	// behaviour; a job conf's dynamic.input.path overrides it per job.
	InputPath string
	// Logger receives structured lifecycle events (job submit/finish,
	// policy decisions, query execution) stamped with the virtual
	// clock; see internal/vlog for the attribute contract. nil means
	// vlog.Nop(): nothing is emitted and disabled-level checks cost a
	// single interface call. Library code must log through this rather
	// than writing to stdout/stderr.
	Logger *slog.Logger
}

// DefaultConfig returns the standard runtime configuration.
func DefaultConfig() Config {
	return Config{Costs: DefaultCosts()}
}

// TaskTracker is the per-node agent: it owns the node's map/reduce
// slots and heartbeats to the JobTracker for work.
type TaskTracker struct {
	jt          *JobTracker
	node        *cluster.Node
	mapSlots    int
	reduceSlots int
	mapUsed     int
	reduceUsed  int

	// Per-node occupied-slot-second integrals (the node-level analogue
	// of JobTracker.mapSlotIntegral), accrued lazily on every slot
	// change so the obs sampler can derive per-node occupancy.
	mapSlotIntegral    float64
	reduceSlotIntegral float64
	lastSlotChange     float64

	// beat is tt.heartbeat, bound once when heartbeats start.
	beat func()
}

// MapSlots returns the node's configured map slot count.
func (tt *TaskTracker) MapSlots() int { return tt.mapSlots }

// ReduceSlots returns the node's configured reduce slot count.
func (tt *TaskTracker) ReduceSlots() int { return tt.reduceSlots }

// MapSlotsUsed returns currently occupied map slots.
func (tt *TaskTracker) MapSlotsUsed() int { return tt.mapUsed }

// ReduceSlotsUsed returns currently occupied reduce slots.
func (tt *TaskTracker) ReduceSlotsUsed() int { return tt.reduceUsed }

// FreeMapSlots returns currently unoccupied map slots.
func (tt *TaskTracker) FreeMapSlots() int { return tt.mapSlots - tt.mapUsed }

// FreeReduceSlots returns currently unoccupied reduce slots.
func (tt *TaskTracker) FreeReduceSlots() int { return tt.reduceSlots - tt.reduceUsed }

// accrueSlots folds elapsed time into the node's slot integrals.
func (tt *TaskTracker) accrueSlots() {
	now := tt.jt.eng.Now()
	dt := now - tt.lastSlotChange
	tt.mapSlotIntegral += float64(tt.mapUsed) * dt
	tt.reduceSlotIntegral += float64(tt.reduceUsed) * dt
	tt.lastSlotChange = now
}

func (tt *TaskTracker) changeMapSlots(delta int) {
	tt.accrueSlots()
	tt.mapUsed += delta
}

func (tt *TaskTracker) changeReduceSlots(delta int) {
	tt.accrueSlots()
	tt.reduceUsed += delta
}

// MapSlotIntegral returns the node's accumulated occupied-map-slot
// seconds up to now. Like ReduceSlotIntegral it only reads: the time
// since the last slot change is added to the result, not accrued.
func (tt *TaskTracker) MapSlotIntegral() float64 {
	return tt.mapSlotIntegral + float64(tt.mapUsed)*(tt.jt.eng.Now()-tt.lastSlotChange)
}

// ReduceSlotIntegral returns the node's accumulated occupied-reduce-slot
// seconds up to now.
func (tt *TaskTracker) ReduceSlotIntegral() float64 {
	return tt.reduceSlotIntegral + float64(tt.reduceUsed)*(tt.jt.eng.Now()-tt.lastSlotChange)
}

// JobTracker is the server-side daemon managing job lifecycles: it
// accepts submissions, hands splits to trackers via the pluggable
// TaskScheduler on each heartbeat, and tracks slot usage.
type JobTracker struct {
	eng      *sim.Engine
	cluster  *cluster.Cluster
	cfg      Config
	sched    TaskScheduler
	trackers []*TaskTracker

	jobs      []*Job
	nextJobID int

	occupiedMapSlots    int
	occupiedReduceSlots int
	// mapSlotIntegral accumulates occupied-map-slot-seconds for the
	// §V-F slot-occupancy metric.
	mapSlotIntegral float64
	lastSlotChange  float64

	totalLocalMaps    int64
	totalNonLocalMaps int64

	listeners []func(TaskEvent)

	// picks and reducePicks are the built-in schedulers' AssignMaps and
	// AssignReduces result buffers.
	picks       []*MapTask
	reducePicks []*ReduceTask

	// keptOutputs holds retired jobs' output arrays, cleared, for later
	// reduces to build their outputs in (see takeOutput).
	keptOutputs [][]KeyValue

	// tracer is nil unless cfg.Trace.Enabled; *trace.Tracer methods are
	// nil-safe, so instrumentation sites call it unconditionally.
	tracer *trace.Tracer

	// logger is never nil (vlog.Nop() when unconfigured).
	logger *slog.Logger

	started bool

	// polling is set once SampleUtilization has scheduled the
	// utilization poll; utilization holds its readings.
	polling     bool
	utilization []trace.MetricSample
}

// NewJobTracker builds the tracker and its per-node TaskTrackers.
// Heartbeats begin on the first submission.
func NewJobTracker(c *cluster.Cluster, cfg Config, sched TaskScheduler) *JobTracker {
	if sched == nil {
		sched = NewFIFOScheduler()
	}
	jt := &JobTracker{eng: c.Eng, cluster: c, cfg: cfg, sched: sched,
		tracer: trace.New(cfg.Trace), logger: vlog.Or(cfg.Logger)}
	for _, n := range c.Nodes {
		jt.trackers = append(jt.trackers, &TaskTracker{
			jt:          jt,
			node:        n,
			mapSlots:    c.Cfg.MapSlotsPerNode,
			reduceSlots: cluster.ReduceSlotsPerNode,
		})
	}
	return jt
}

// Engine returns the virtual clock driving the tracker.
func (jt *JobTracker) Engine() *sim.Engine { return jt.eng }

// Cluster returns the hardware.
func (jt *JobTracker) Cluster() *cluster.Cluster { return jt.cluster }

// Scheduler returns the active task scheduler.
func (jt *JobTracker) Scheduler() TaskScheduler { return jt.sched }

// Jobs returns all submitted jobs in submission order.
func (jt *JobTracker) Jobs() []*Job { return jt.jobs }

// TaskTrackers returns the per-node trackers in node-id order, for
// observability consumers (the obs sampler reads slot occupancy off
// them). The slice is the tracker's own: callers must not mutate it.
func (jt *JobTracker) TaskTrackers() []*TaskTracker { return jt.trackers }

// Tracer returns the runtime's tracer, nil when tracing is disabled.
// trace.Tracer methods are nil-safe, so callers may use the result
// unconditionally; gate on Tracer().Enabled() to skip whole blocks.
func (jt *JobTracker) Tracer() *trace.Tracer { return jt.tracer }

// Logger returns the runtime's structured logger (never nil; the
// discard logger when unconfigured). Components layered on the
// tracker (Input Provider clients, Hive sessions) log through it so
// their records share one virtual-clock stream.
func (jt *JobTracker) Logger() *slog.Logger { return jt.logger }

// logEnabled reports whether the logger accepts records at level, so
// hot paths can skip attribute construction entirely.
func (jt *JobTracker) logEnabled(level slog.Level) bool {
	return jt.logger.Enabled(context.Background(), level)
}

// start launches staggered periodic heartbeats and, when tracing, the
// utilization poll the tracer's timeline records.
func (jt *JobTracker) start() {
	if jt.started {
		return
	}
	jt.started = true
	n := len(jt.trackers)
	for i, tt := range jt.trackers {
		offset := heartbeatIntervalS * float64(i+1) / float64(n)
		tt.beat = tt.heartbeat
		jt.eng.After(offset, tt.beat)
	}
	if jt.tracer.Enabled() {
		jt.SampleUtilization()
	}
}

// heartbeat is the tracker's periodic scheduling opportunity; it
// re-arms itself through tt.beat.
func (tt *TaskTracker) heartbeat() {
	jt := tt.jt
	if jt.tracer.Enabled() {
		jt.tracer.Instant(trace.EventHeartbeat, trace.CatNode, jt.eng.Now(), -1, -1, tt.node.ID)
		jt.tracer.Inc(trace.CounterHeartbeats, 1)
	}
	jt.assign(tt)
	jt.eng.After(heartbeatIntervalS, tt.beat)
}

// assign is one scheduling opportunity for a tracker: consult the
// scheduler for up to mapsPerHeartbeat maps and reducesPerHeartbeat
// reduces, then consider a speculative backup attempt for a straggler.
func (jt *JobTracker) assign(tt *TaskTracker) {
	if n := min(tt.FreeMapSlots(), mapsPerHeartbeat); n > 0 {
		for _, t := range jt.sched.AssignMaps(jt, tt, n) {
			jt.launchMap(tt, t)
		}
	}
	if n := min(tt.FreeReduceSlots(), reducesPerHeartbeat); n > 0 {
		for _, t := range jt.sched.AssignReduces(jt, tt, n) {
			jt.launchReduce(tt, t)
		}
	}
	if jt.cfg.SpeculativeExecution && tt.FreeMapSlots() > 0 {
		if t := jt.speculativeCandidate(tt); t != nil {
			jt.launchSpeculative(tt, t)
		}
	}
}

// speculativeCandidate finds a straggling map task worth backing up on
// this tracker: its job has nothing pending, the task has exactly one
// attempt on a *different* node, and that attempt has outlived the
// straggler threshold. Of the first job in submission order that has
// such tasks, it picks the one with the lowest index, so the backup
// does not depend on map iteration order.
func (jt *JobTracker) speculativeCandidate(tt *TaskTracker) *MapTask {
	now := jt.eng.Now()
	for _, j := range jt.jobs {
		if j.Done() || j.state != StateMapPhase || j.nPending > 0 {
			continue
		}
		med, ok := j.medianMapDuration()
		if !ok {
			continue
		}
		var pick *MapTask
		for t := range j.runningMaps {
			if t.completed || len(t.running) != 1 {
				continue
			}
			att := t.running[0]
			if att.tt == tt {
				continue // back up on a different node
			}
			if now-att.startTime > speculativeSlowdown*med && (pick == nil || t.Index < pick.Index) {
				pick = t
			}
		}
		if pick != nil {
			return pick
		}
	}
	return nil
}

// Submit registers a job with its initial splits. Non-dynamic jobs are
// closed immediately (all input known up front — Hadoop's model);
// dynamic jobs stay open until EndOfInput.
func (jt *JobTracker) Submit(spec JobSpec, splits []Split) *Job {
	conf := spec.Conf
	if conf == nil {
		conf = NewJobConf()
	}
	if spec.NewMapper == nil {
		panic("mapreduce: JobSpec.NewMapper is required")
	}
	j := &Job{
		ID:          jt.nextJobID,
		Spec:        spec,
		Conf:        conf,
		Name:        conf.Get(ConfJobName, fmt.Sprintf("job-%d", jt.nextJobID)),
		User:        conf.Get(ConfUser, "default"),
		Dynamic:     conf.GetBool(ConfDynamicJob, false),
		numReduces:  int(conf.GetInt(ConfNumReduces, 1)),
		runningMaps: make(map[*MapTask]struct{}),
		SubmitTime:  jt.eng.Now(),
	}
	jt.nextJobID++
	if j.numReduces < 1 {
		j.numReduces = 1
	}
	j.mapOutput = make([][]mapChunk, j.numReduces)
	j.memo = jt.effMemo(j)
	if cache := jt.cfg.MapOutputCache; cache != nil && j.memo != "" {
		j.memoTab = cache.table(j.memo)
	}
	for r := 0; r < j.numReduces; r++ {
		t := &ReduceTask{Job: j, Index: r, att: attempt{job: j, index: r, reduce: true}}
		t.att.next = t.advance
		j.reduceTasks = append(j.reduceTasks, t)
	}
	jt.jobs = append(jt.jobs, j)
	jt.addSplits(j, splits)
	if !j.Dynamic {
		j.endOfInput = true
	}
	jt.start()
	jt.emit(TaskEvent{Type: EventJobSubmitted, JobID: j.ID, TaskIndex: -1, Node: -1})
	jt.tracer.Instant(trace.EventJobSubmitted, trace.CatJob, j.SubmitTime, j.ID, -1, -1)
	jt.tracer.Inc(trace.CounterJobsSubmitted, 1)
	if jt.logEnabled(slog.LevelInfo) {
		args := []any{
			slog.String(vlog.KeyComponent, "jobtracker"),
			slog.Int(vlog.KeyJob, j.ID),
			slog.String(vlog.KeyUser, j.User),
			slog.String("name", j.Name),
			slog.Bool("dynamic", j.Dynamic),
			slog.Int("initial_splits", len(splits)),
		}
		if qid := j.Conf.Get(ConfQueryID, ""); qid != "" {
			args = append(args, slog.String(vlog.KeyQueryID, qid))
		}
		jt.logger.Info("job submitted", args...)
	}
	// A job with no input and no future input can complete immediately.
	jt.maybeStartReducePhase(j)
	return j
}

// AddSplits hands additional input to a dynamic job ("input available"
// response, §III-A).
func (jt *JobTracker) AddSplits(j *Job, splits []Split) error {
	if j.Done() {
		return fmt.Errorf("mapreduce: job %d already finished", j.ID)
	}
	if j.endOfInput {
		return fmt.Errorf("mapreduce: job %d input already closed", j.ID)
	}
	jt.addSplits(j, splits)
	return nil
}

func (jt *JobTracker) addSplits(j *Job, splits []Split) {
	for _, s := range splits {
		t := &MapTask{Job: j, Index: j.scheduled, Split: s, enqueued: jt.eng.Now()}
		t.running = t.runningBuf[:0]
		j.scheduled++
		j.pushPending(t)
	}
}

// EndOfInput closes a dynamic job's input ("end of input" response):
// in-flight maps finish, then the reduce phase begins.
func (jt *JobTracker) EndOfInput(j *Job) error {
	if j.Done() {
		return fmt.Errorf("mapreduce: job %d already finished", j.ID)
	}
	if j.endOfInput {
		return nil // idempotent
	}
	j.endOfInput = true
	jt.maybeStartReducePhase(j)
	return nil
}

// Retire removes a finished job from the tracker's bookkeeping and
// releases its shuffle buffers. The job's output array is cleared and
// kept for a later reduce to build its output in, so Output is valid
// only until Retire. Long-running workloads retire jobs after
// harvesting their results so that scheduler scans and memory stay
// proportional to *active* jobs.
func (jt *JobTracker) Retire(j *Job) error {
	if !j.Done() {
		return fmt.Errorf("mapreduce: cannot retire running job %d", j.ID)
	}
	for i, x := range jt.jobs {
		if x == j {
			jt.jobs = append(jt.jobs[:i], jt.jobs[i+1:]...)
			break
		}
	}
	if r, ok := jt.sched.(jobRetirer); ok {
		r.retireJob(j)
	}
	jt.keepOutput(j.output)
	j.output = nil
	j.mapOutput = nil
	j.reduceTasks = nil
	j.pendingReduces = nil
	return nil
}

// keepOutput clears an output array that nothing reads any more and
// keeps it for takeOutput. A full list keeps the larger arrays: s
// replaces the smallest kept one if it is larger, and is dropped
// otherwise.
//
// Only s[:len(s)] is cleared. Past it an output array is always zero:
// a fresh or grown array starts zeroed, and a kept one is cleared here
// before a reduce appends to it from length 0.
func (jt *JobTracker) keepOutput(s []KeyValue) {
	if cap(s) == 0 {
		return
	}
	clear(s)
	s = s[:0]
	if len(jt.keptOutputs) < maxKeptOutputs {
		jt.keptOutputs = append(jt.keptOutputs, s)
		return
	}
	small := 0
	for i, k := range jt.keptOutputs {
		if cap(k) < cap(jt.keptOutputs[small]) {
			small = i
		}
	}
	if cap(s) > cap(jt.keptOutputs[small]) {
		jt.keptOutputs[small] = s
	}
}

// takeOutput hands out the smallest kept array whose capacity covers n
// pairs, empty, or nil when none does.
func (jt *JobTracker) takeOutput(n int) []KeyValue {
	best := -1
	for i, k := range jt.keptOutputs {
		if cap(k) >= n && (best < 0 || cap(k) < cap(jt.keptOutputs[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	s := jt.keptOutputs[best]
	last := len(jt.keptOutputs) - 1
	jt.keptOutputs[best] = jt.keptOutputs[last]
	jt.keptOutputs[last] = nil
	jt.keptOutputs = jt.keptOutputs[:last]
	return s
}

// jobRetirer lets schedulers drop per-job state at retirement.
type jobRetirer interface{ retireJob(*Job) }

// Status snapshots the job for the JobClient/Input Provider.
func (jt *JobTracker) Status(j *Job) JobStatus {
	var user map[string]int64
	if len(j.Counters.User) > 0 {
		user = make(map[string]int64, len(j.Counters.User))
		for k, v := range j.Counters.User {
			user[k] = v
		}
	}
	return JobStatus{
		UserCounters:     user,
		JobID:            j.ID,
		State:            j.state,
		ScheduledMaps:    j.scheduled,
		CompletedMaps:    j.CompletedMaps(),
		RunningMaps:      len(j.runningMaps),
		PendingMaps:      j.nPending,
		MapInputRecords:  j.Counters.MapInputRecords,
		MapOutputRecords: j.Counters.MapOutputRecords,
		ScanBlocksRead:   j.Counters.ScanBlocksRead,
		ScanBlocksSkip:   j.Counters.ScanBlocksSkipped,
		SubmitTime:       j.SubmitTime,
		Now:              jt.eng.Now(),
	}
}

// ClusterStatus snapshots cluster capacity and load.
func (jt *JobTracker) ClusterStatus() ClusterStatus {
	queued := 0
	queuedReduces := 0
	running := 0
	for _, j := range jt.jobs {
		if !j.Done() {
			running++
			queued += j.nPending
			queuedReduces += len(j.pendingReduces)
		}
	}
	return ClusterStatus{
		TotalMapSlots:     jt.cluster.Cfg.TotalMapSlots(),
		OccupiedMapSlots:  jt.occupiedMapSlots,
		TotalReduceSlots:  cluster.Nodes * cluster.ReduceSlotsPerNode,
		OccupiedReduces:   jt.occupiedReduceSlots,
		RunningJobs:       running,
		QueuedMapTasks:    queued,
		QueuedReduceTasks: queuedReduces,
	}
}

// MapSlotOccupancyIntegral returns accumulated occupied-map-slot-seconds
// up to now; (Δintegral / (totalSlots·Δt)) is the §V-F "slot occupancy".
func (jt *JobTracker) MapSlotOccupancyIntegral() float64 {
	jt.accrueSlots()
	return jt.mapSlotIntegral
}

// LocalityStats returns cluster-lifetime local and non-local completed
// map counts (§V-F's "locality" metric).
func (jt *JobTracker) LocalityStats() (local, nonLocal int64) {
	return jt.totalLocalMaps, jt.totalNonLocalMaps
}

func (jt *JobTracker) accrueSlots() {
	now := jt.eng.Now()
	jt.mapSlotIntegral += float64(jt.occupiedMapSlots) * (now - jt.lastSlotChange)
	jt.lastSlotChange = now
}

func (jt *JobTracker) changeMapSlots(delta int) {
	jt.accrueSlots()
	jt.occupiedMapSlots += delta
}

// partition assigns a key to a reduce partition (Hadoop's hash
// partitioner).
func partition(key string, numReduces int) int {
	if numReduces == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(numReduces))
}

// failJob transitions to StateFailed and discards pending work.
func (jt *JobTracker) failJob(j *Job, why string) {
	if j.Done() {
		return
	}
	mapDone := j.state == StateReducePhase
	j.state = StateFailed
	j.failure = why
	j.clearPending()
	j.pendingReduces = nil
	j.FinishTime = jt.eng.Now()
	jt.traceJobEnd(j, trace.OutcomeFailed, mapDone)
	if jt.logEnabled(slog.LevelWarn) {
		args := []any{
			slog.String(vlog.KeyComponent, "jobtracker"),
			slog.Int(vlog.KeyJob, j.ID),
			slog.String("reason", why),
			slog.Float64("makespan_s", j.FinishTime-j.SubmitTime),
		}
		if qid := j.Conf.Get(ConfQueryID, ""); qid != "" {
			args = append(args, slog.String(vlog.KeyQueryID, qid))
		}
		jt.logger.Warn("job failed", args...)
	}
	jt.emit(TaskEvent{Type: EventJobFinished, JobID: j.ID, TaskIndex: -1, Node: -1})
	if j.Spec.OnComplete != nil {
		j.Spec.OnComplete(j)
	}
}

// maybeStartReducePhase moves the job to its reduce phase when the map
// phase is complete (§III-A: the framework does not begin the reduce
// phase until end-of-input).
func (jt *JobTracker) maybeStartReducePhase(j *Job) {
	if !j.mapPhaseComplete() {
		return
	}
	j.state = StateReducePhase
	j.MapDoneTime = jt.eng.Now()
	j.pendingReduces = append([]*ReduceTask(nil), j.reduceTasks...)
}

// traceJobEnd records the job-level spans at termination: the whole
// job, its map phase, and (when reached) its reduce phase.
func (jt *JobTracker) traceJobEnd(j *Job, outcome string, mapDone bool) {
	tr := jt.tracer
	if !tr.Enabled() {
		return
	}
	now := jt.eng.Now()
	tr.Record(trace.Span{Name: trace.SpanJob, Cat: trace.CatJob,
		Start: j.SubmitTime, End: now, Job: j.ID, Task: -1, Attempt: 0, Node: -1, Outcome: outcome})
	if mapDone {
		tr.Record(trace.Span{Name: trace.SpanMapPhase, Cat: trace.CatJob,
			Start: j.SubmitTime, End: j.MapDoneTime, Job: j.ID, Task: -1, Node: -1})
		tr.Record(trace.Span{Name: trace.SpanReducePhase, Cat: trace.CatJob,
			Start: j.MapDoneTime, End: now, Job: j.ID, Task: -1, Node: -1})
	} else {
		tr.Record(trace.Span{Name: trace.SpanMapPhase, Cat: trace.CatJob,
			Start: j.SubmitTime, End: now, Job: j.ID, Task: -1, Node: -1})
	}
	tr.Inc(trace.CounterJobsFinished, 1)
}

// completeJob finalises a successful job.
func (jt *JobTracker) completeJob(j *Job) {
	j.state = StateSucceeded
	j.FinishTime = jt.eng.Now()
	jt.traceJobEnd(j, trace.OutcomeOK, true)
	if jt.logEnabled(slog.LevelInfo) {
		args := []any{
			slog.String(vlog.KeyComponent, "jobtracker"),
			slog.Int(vlog.KeyJob, j.ID),
			slog.Float64("makespan_s", j.FinishTime-j.SubmitTime),
			slog.Int("maps", j.scheduled),
			slog.Int64("map_input_records", j.Counters.MapInputRecords),
		}
		if qid := j.Conf.Get(ConfQueryID, ""); qid != "" {
			args = append(args, slog.String(vlog.KeyQueryID, qid))
		}
		jt.logger.Info("job finished", args...)
	}
	jt.emit(TaskEvent{Type: EventJobFinished, JobID: j.ID, TaskIndex: -1, Node: -1})
	// Output order is deterministic: reduces append to j.output in the
	// order they complete (a function of the virtual timeline), each in
	// its reducer's emit order.
	if j.Spec.OnComplete != nil {
		j.Spec.OnComplete(j)
	}
}

// sortPairs concatenates one partition's chunks in producing-task
// order and sorts by key so reduce input is deterministic.
func sortPairs(chunks []mapChunk) []KeyValue {
	var total int
	for _, c := range chunks {
		total += len(c.pairs)
	}
	pairs := make([]KeyValue, 0, total)
	for _, c := range chunks {
		pairs = append(pairs, c.pairs...)
	}
	// Stable sort by key: Hadoop's merge groups equal keys while
	// preserving chunk order within a key.
	sortPairsStable(pairs)
	return pairs
}
