// Package qstats is the per-query observability layer: a registry that
// assigns every sampling query a stable ID, tracks its lifecycle
// (submit / first-match / limit-hit / finish on both the virtual and
// the wall clock), attributes resources to it (splits grabbed, records
// read, map/shuffle/reduce seconds, overshoot versus k), folds finished
// queries into rolling log-bucketed latency histograms and windowed QPS
// per policy, and diagnoses each finished query with internal/diag
// over just that query's trace entries — so the nine-component
// breakdown streams out live instead of only post-run.
//
// The registry hangs off the JobTracker event bus: the Hive session
// allocates an ID before submitting (so the ID rides the JobConf and
// the structured-log stream, vlog key "qid"), registers the job, and
// the registry does the rest from EventMapFinished/EventJobFinished
// callbacks on the engine goroutine. Trace spans and policy decisions
// are consumed through the incremental AppendSpansSince /
// PolicyDecisionsSince cursors, never by copying the whole ring.
//
// The diagnosis is the one part of a finish that does not run on the
// engine goroutine. A finish publishes every other field and queues the
// record with the trace entries drained for it. Once diagBatch records
// are queued, a goroutine diagnoses them oldest first with one reusable
// diag.JobTrace and sets Diagnosis or DiagError. Dump waits for the
// queue to empty, starting the goroutine for a partial batch, so no
// view shows a finished record without its diagnosis. OutcomesSince,
// the tsdb tick's read, never waits: it reads only fields a finish
// sets.
//
// Consumers: internal/obs serves the registry on /queries, /live and
// /metrics; cmd/dynmr dumps it on shutdown and renders `dynmr top`;
// the dynamicmr facade exposes it as Cluster.QueryStats(). All of it
// is absent — zero allocations, zero branches beyond a nil check —
// when the layer is disabled.
package qstats

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"dynamicmr/internal/diag"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/trace"

	"sync"
)

// SchemaVersion identifies the JSON layout of Dump (the /queries
// payload, the archive's qstats record and `dynmr render qstats`); see
// DESIGN.md "Per-query observability".
const SchemaVersion = "dynamicmr.qstats/1"

// Query states.
const (
	StateRunning   = "running"
	StateOK        = "ok"
	StateFailed    = "failed"
	StateAbandoned = "abandoned"
)

// DefaultMaxRecords bounds the finished-query detail list so an
// unbounded serve loop (-queries 0) cannot grow memory without limit;
// per-policy aggregates are unaffected by the trim.
const DefaultMaxRecords = 10000

// DefaultQPSWindowS is the sliding wall-clock window for the per-policy
// QPS gauge, in seconds.
const DefaultQPSWindowS = 60.0

// diagBatch is how many queued records start the diagnosis goroutine.
// maxFree bounds the idle trace buffers of each kind the registry keeps
// for reuse. It is above what a closed loop of ten users holds at once
// (its in-flight queries, a batch queued and a batch being diagnosed),
// so steady state allocates none, and the extra buffers of a backlog
// are not kept.
const (
	diagBatch = 8
	maxFree   = 32
)

// QueryRecord is the lifecycle and attribution record of one query.
// Timestamps with the VT suffix are virtual seconds; Wall timestamps
// are wall-clock seconds since the registry was created. Lifecycle
// fields that have not happened (yet) hold -1.
type QueryRecord struct {
	ID      string `json:"id"`
	JobID   int    `json:"job"`
	SQL     string `json:"query"`
	User    string `json:"user"`
	Policy  string `json:"policy"`
	K       int64  `json:"k"`
	Dynamic bool   `json:"dynamic"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`

	SubmitVT     float64 `json:"submit_vt_s"`
	FirstMatchVT float64 `json:"first_match_vt_s"`
	LimitHitVT   float64 `json:"limit_hit_vt_s"`
	FinishVT     float64 `json:"finish_vt_s"`

	SubmitWall     float64 `json:"submit_wall_s"`
	FirstMatchWall float64 `json:"first_match_wall_s"`
	LimitHitWall   float64 `json:"limit_hit_wall_s"`
	FinishWall     float64 `json:"finish_wall_s"`

	LatencyVirtualS float64 `json:"latency_virtual_s"`
	LatencyWallS    float64 `json:"latency_wall_s"`

	// Resource attribution.
	SplitsTotal    int     `json:"splits_total"`
	SplitsGrabbed  int     `json:"splits_grabbed"`
	SplitsScanned  int     `json:"splits_scanned"`
	RecordsRead    int64   `json:"records_read"`
	Matches        int64   `json:"matches"`
	OvershootRows  int64   `json:"overshoot_rows"`
	Rows           int     `json:"rows"`
	ProviderEvals  int     `json:"provider_evaluations"`
	MapSeconds     float64 `json:"map_time_s"`
	ShuffleSeconds float64 `json:"shuffle_time_s"`
	ReduceSeconds  float64 `json:"reduce_time_s"`

	// Diagnosis is the per-query diag breakdown (critical path,
	// nine-component breakdown summing to the makespan, anomalies),
	// computed from the query's trace entries after it finishes and
	// present in every finished record a view returns; nil when tracing
	// was disabled or the job's spans were evicted before finish
	// (DiagError says why).
	Diagnosis *diag.JobDiagnosis `json:"diagnosis,omitempty"`
	DiagError string             `json:"diag_error,omitempty"`

	job *mapreduce.Job // engine-goroutine use only; not marshaled
	// spans and decisions are the trace entries drained for the query
	// while it runs. At finish they pass to the diagnosis goroutine,
	// which returns them to the registry's free lists.
	spans     []trace.Span
	decisions []trace.PolicyDecision
}

// PolicyLatency is the rolling per-policy latency/QPS aggregate.
// Quantiles are log-bucket upper bounds (at most ~9% above the true
// value); Max values are exact.
type PolicyLatency struct {
	Policy     string  `json:"policy"`
	Finished   int64   `json:"finished"`
	Failed     int64   `json:"failed"`
	QPS        float64 `json:"qps_window"`
	QPSWindowS float64 `json:"qps_window_s"`

	WallP50S float64 `json:"wall_p50_s"`
	WallP90S float64 `json:"wall_p90_s"`
	WallP99S float64 `json:"wall_p99_s"`
	WallMaxS float64 `json:"wall_max_s"`

	VirtualP50S float64 `json:"virtual_p50_s"`
	VirtualP90S float64 `json:"virtual_p90_s"`
	VirtualP99S float64 `json:"virtual_p99_s"`
	VirtualMaxS float64 `json:"virtual_max_s"`
}

// Dump is the full registry snapshot serialised as SchemaVersion.
type Dump struct {
	Schema       string          `json:"schema"`
	VirtualTimeS float64         `json:"virtual_time_s"`
	WallTimeS    float64         `json:"wall_time_s"`
	Started      int64           `json:"queries_started"`
	Finished     int64           `json:"queries_finished"`
	Failed       int64           `json:"queries_failed"`
	Policies     []PolicyLatency `json:"policies"`
	InFlight     []QueryRecord   `json:"in_flight"`
	Queries      []QueryRecord   `json:"queries"`
}

type policyAgg struct {
	name     string
	finished int64
	failed   int64
	wall     Hist
	virtual  Hist
	qps      qpsWindow
}

// Registry tracks every query submitted through sessions wired to it.
// All methods are safe on a nil *Registry (the disabled state) and
// safe for concurrent use; event callbacks run on the engine
// goroutine, snapshot methods may run on HTTP handler goroutines.
type Registry struct {
	mu sync.Mutex

	jt    *mapreduce.JobTracker
	start time.Time
	now   func() float64 // wall seconds since start; injectable in tests

	nextID     int
	maxRecords int

	inflight map[int]*QueryRecord // keyed by job ID
	records  []*QueryRecord       // finished/abandoned, oldest first
	dropped  int64                // finished records trimmed from the list

	spanCursor     int64
	decisionCursor int

	// diagQueue holds finished records awaiting their diagnosis, oldest
	// first. The diagnosis goroutine runs while diagRunning, takes the
	// queue a batch at a time, and broadcasts diagDone (on mu) when it
	// stops; diagWaiters counts views waiting for it, which make it run
	// until the queue is empty. freeSpans and freeDecisions hold
	// per-query buffers for reuse, at most maxFree each.
	diagQueue     []*QueryRecord
	diagRunning   bool
	diagWaiters   int
	diagDone      sync.Cond
	freeSpans     [][]trace.Span
	freeDecisions [][]trace.PolicyDecision
	// spanHint and decisionHint are the most entries a finished query
	// held: the capacity a buffer is made with when its free list is
	// empty, so that it need not grow as it fills.
	spanHint, decisionHint int
	// The diagnosis goroutine's own state, which only the one running
	// touches: the spare queue array it swaps in for a taken batch, the
	// batch's results and the reused collector.
	diagSpare []*QueryRecord
	diagOut   []diagResult
	collector diag.JobTrace

	policies []*policyAgg
	byPolicy map[string]*policyAgg

	started, finished, failed int64
}

// NewRegistry builds a registry bound to the JobTracker's event bus.
func NewRegistry(jt *mapreduce.JobTracker) *Registry {
	start := time.Now()
	r := &Registry{
		jt:         jt,
		start:      start,
		now:        func() float64 { return time.Since(start).Seconds() },
		maxRecords: DefaultMaxRecords,
		inflight:   make(map[int]*QueryRecord),
		byPolicy:   make(map[string]*policyAgg),
	}
	r.diagDone.L = &r.mu
	jt.Subscribe(r.onEvent)
	return r
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// AllocID reserves the next stable query ID. It is called before job
// submission so the ID can ride the JobConf (mapreduce.ConfQueryID)
// and appear in every log record the runtime emits for the job.
func (r *Registry) AllocID() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return fmt.Sprintf("q-%06d", r.nextID)
}

// Register binds an allocated ID to a submitted job and opens its
// lifecycle record. totalSplits is the table's full split count (the
// denominator of "splits grabbed of N").
func (r *Registry) Register(id string, job *mapreduce.Job, sql string, totalSplits int) {
	if r == nil || job == nil {
		return
	}
	policy := job.Conf.Get(mapreduce.ConfDynamicPolicy, "")
	if policy == "" {
		if job.Dynamic {
			policy = "dynamic"
		} else {
			policy = "static"
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := &QueryRecord{
		ID:      id,
		JobID:   job.ID,
		SQL:     sql,
		User:    job.User,
		Policy:  policy,
		K:       job.Conf.GetInt(mapreduce.ConfSampleSize, -1),
		Dynamic: job.Dynamic,
		State:   StateRunning,

		SubmitVT:       job.SubmitTime,
		FirstMatchVT:   -1,
		LimitHitVT:     -1,
		FinishVT:       -1,
		SubmitWall:     r.now(),
		FirstMatchWall: -1,
		LimitHitWall:   -1,
		FinishWall:     -1,

		SplitsTotal: totalSplits,
		job:         job,
	}
	r.inflight[job.ID] = rec
	r.started++
	// A job can be Done before Register runs (a static job over zero
	// splits completes inside Submit, before the session regains
	// control). Finalise it from the record we just opened.
	if job.Done() {
		r.finishLocked(rec, job.FinishTime)
	}
}

func (r *Registry) onEvent(e mapreduce.TaskEvent) {
	switch e.Type {
	case mapreduce.EventMapFinished:
		r.onProgress(e)
	case mapreduce.EventJobFinished:
		r.onFinished(e)
	}
}

// refreshLocked re-reads the job's live counters into the record. Only
// called on the engine goroutine (event callbacks), where touching the
// job is race-free.
func refreshLocked(rec *QueryRecord) {
	job := rec.job
	rec.SplitsGrabbed = job.ScheduledMaps()
	rec.SplitsScanned = job.CompletedMaps()
	rec.RecordsRead = job.Counters.MapInputRecords
	rec.Matches = job.Counters.MapOutputRecords
}

func (r *Registry) onProgress(e mapreduce.TaskEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.inflight[e.JobID]
	if !ok {
		return
	}
	refreshLocked(rec)
	if rec.Matches > 0 && rec.FirstMatchVT < 0 {
		rec.FirstMatchVT = e.Time
		rec.FirstMatchWall = r.now()
	}
	if rec.K > 0 && rec.Matches >= rec.K && rec.LimitHitVT < 0 {
		rec.LimitHitVT = e.Time
		rec.LimitHitWall = r.now()
	}
}

func (r *Registry) onFinished(e mapreduce.TaskEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.inflight[e.JobID]
	if !ok {
		return
	}
	r.finishLocked(rec, e.Time)
}

// finishLocked finalises a query: closes the lifecycle, attributes
// resources and phase seconds from the query's span slice, queues the
// diagnosis, and folds the latency into the per-policy aggregates.
func (r *Registry) finishLocked(rec *QueryRecord, vt float64) {
	// Bucket any trace entries produced since the last finish while the
	// job is still in the inflight set.
	r.drainLocked()
	delete(r.inflight, rec.JobID)

	job := rec.job
	rec.job = nil
	rec.SplitsGrabbed = job.ScheduledMaps()
	rec.SplitsScanned = job.CompletedMaps()
	rec.RecordsRead = job.Counters.MapInputRecords
	rec.Matches = job.Counters.MapOutputRecords
	rec.Rows = len(job.Output())
	if rec.K >= 0 {
		if over := rec.Matches - rec.K; over > 0 {
			rec.OvershootRows = over
		}
	}
	if rec.Matches > 0 && rec.FirstMatchVT < 0 {
		rec.FirstMatchVT = vt
		rec.FirstMatchWall = r.now()
	}
	if rec.K > 0 && rec.Matches >= rec.K && rec.LimitHitVT < 0 {
		rec.LimitHitVT = vt
		rec.LimitHitWall = r.now()
	}

	rec.FinishVT = vt
	rec.FinishWall = r.now()
	rec.LatencyVirtualS = rec.FinishVT - rec.SubmitVT
	rec.LatencyWallS = rec.FinishWall - rec.SubmitWall
	if job.State() == mapreduce.StateSucceeded {
		rec.State = StateOK
	} else {
		rec.State = StateFailed
		rec.Error = job.Failure()
	}

	rec.ProviderEvals = len(rec.decisions)
	r.spanHint = max(r.spanHint, len(rec.spans))
	r.decisionHint = max(r.decisionHint, len(rec.decisions))
	for _, s := range rec.spans {
		switch s.Name {
		case trace.SpanMapAttempt:
			rec.MapSeconds += s.Duration()
		case trace.SpanShuffle, trace.SpanSort:
			rec.ShuffleSeconds += s.Duration()
		case trace.SpanReduceCPU, trace.SpanOutputWrite:
			rec.ReduceSeconds += s.Duration()
		}
	}

	if r.jt.Tracer().Enabled() {
		r.diagQueue = append(r.diagQueue, rec)
		if len(r.diagQueue) >= diagBatch && !r.diagRunning {
			r.startDiagLocked()
		}
	}

	agg := r.byPolicy[rec.Policy]
	if agg == nil {
		agg = &policyAgg{name: rec.Policy, qps: qpsWindow{window: DefaultQPSWindowS}}
		r.byPolicy[rec.Policy] = agg
		r.policies = append(r.policies, agg)
	}
	agg.finished++
	r.finished++
	if rec.State == StateFailed {
		agg.failed++
		r.failed++
	}
	agg.wall.Observe(rec.LatencyWallS)
	agg.virtual.Observe(rec.LatencyVirtualS)
	agg.qps.add(rec.FinishWall)

	r.records = append(r.records, rec)
	// Amortised trim: let the slice overshoot by 25% before compacting
	// so the copy cost is O(1) per finished query, not O(maxRecords).
	if len(r.records) > r.maxRecords+r.maxRecords/4 {
		n := len(r.records) - r.maxRecords
		r.dropped += int64(n)
		r.records = append(r.records[:0:0], r.records[n:]...)
	}
}

// Abandon closes the record of a query whose caller gave up on it (a
// Hive deadline) while the job may still be running. The job's later
// EventJobFinished is ignored.
func (r *Registry) Abandon(job *mapreduce.Job, reason string) {
	if r == nil || job == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.inflight[job.ID]
	if !ok {
		return
	}
	delete(r.inflight, job.ID)
	r.recycleLocked(rec)
	rec.job = nil
	rec.SplitsGrabbed = job.ScheduledMaps()
	rec.SplitsScanned = job.CompletedMaps()
	rec.RecordsRead = job.Counters.MapInputRecords
	rec.Matches = job.Counters.MapOutputRecords
	rec.State = StateAbandoned
	rec.Error = reason
	rec.FinishVT = r.jt.Engine().Now()
	rec.FinishWall = r.now()
	rec.LatencyVirtualS = rec.FinishVT - rec.SubmitVT
	rec.LatencyWallS = rec.FinishWall - rec.SubmitWall
	r.finished++
	r.failed++
	r.records = append(r.records, rec)
}

// drainLocked advances the trace cursors, appending fresh spans and
// policy decisions to the in-flight record they belong to: each is
// copied once, from the tracer's ring or log into the record's buffer.
// Entries for jobs the registry is not tracking (estimation jobs,
// finished jobs' stragglers) are discarded.
func (r *Registry) drainLocked() {
	tr := r.jt.Tracer()
	if !tr.Enabled() {
		return
	}
	a, b, next := tr.SpansSince(r.spanCursor)
	r.spanCursor = next
	for _, run := range [2][]trace.Span{a, b} {
		for i := range run {
			s := &run[i]
			if s.Job < 0 {
				continue
			}
			if rec := r.inflight[s.Job]; rec != nil {
				if rec.spans == nil {
					rec.spans = popFree(&r.freeSpans, r.spanHint)
				}
				rec.spans = append(rec.spans, *s)
			}
		}
	}
	decs := tr.PolicyDecisionsSince(r.decisionCursor)
	r.decisionCursor += len(decs)
	for i := range decs {
		d := &decs[i]
		if rec := r.inflight[d.JobID]; rec != nil {
			if rec.decisions == nil {
				rec.decisions = popFree(&r.freeDecisions, r.decisionHint)
			}
			rec.decisions = append(rec.decisions, *d)
		}
	}
}

// diagResult is one diagnosis the goroutine computed, set on its record
// under the lock.
type diagResult struct {
	d   *diag.JobDiagnosis
	err error
}

// startDiagLocked starts the diagnosis goroutine; it must not be
// running.
func (r *Registry) startDiagLocked() {
	r.diagRunning = true
	go r.diagnoseQueued()
}

// diagnoseQueued diagnoses the queue a batch at a time, oldest first,
// running the collector without holding r.mu: whole batches, and
// whatever is queued while a view waits. Only one runs at a time: it is
// started with diagRunning set, and clears it with r.mu held.
func (r *Registry) diagnoseQueued() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.diagQueue) >= diagBatch || (len(r.diagQueue) > 0 && r.diagWaiters > 0) {
		batch := r.diagQueue
		r.diagQueue = r.diagSpare[:0]
		r.mu.Unlock()
		out := r.diagOut[:0]
		c := &r.collector
		for _, rec := range batch {
			c.Reset(rec.JobID)
			for i := range rec.spans {
				c.Add(rec.spans[i])
			}
			for i := range rec.decisions {
				c.AddDecision(rec.decisions[i])
			}
			d, err := c.Diagnose()
			out = append(out, diagResult{d, err})
		}
		r.mu.Lock()
		for i, rec := range batch {
			if err := out[i].err; err != nil {
				rec.DiagError = err.Error()
			} else {
				rec.Diagnosis = out[i].d
			}
			r.recycleLocked(rec)
		}
		clear(batch)
		clear(out)
		r.diagSpare, r.diagOut = batch[:0], out[:0]
	}
	r.diagRunning = false
	r.diagDone.Broadcast()
}

// waitDiagnosedLocked blocks until every finished record has its
// diagnosis, starting the goroutine for a partial batch.
func (r *Registry) waitDiagnosedLocked() {
	r.diagWaiters++
	for len(r.diagQueue) > 0 || r.diagRunning {
		if !r.diagRunning {
			r.startDiagLocked()
		}
		r.diagDone.Wait()
	}
	r.diagWaiters--
}

// recycleLocked returns a record's trace buffers to the free lists,
// keeping at most maxFree of each.
func (r *Registry) recycleLocked(rec *QueryRecord) {
	if rec.spans != nil && len(r.freeSpans) < maxFree {
		r.freeSpans = append(r.freeSpans, rec.spans[:0])
	}
	if rec.decisions != nil && len(r.freeDecisions) < maxFree {
		r.freeDecisions = append(r.freeDecisions, rec.decisions[:0])
	}
	rec.spans, rec.decisions = nil, nil
}

// popFree takes a buffer off a free list, or makes one of capacity
// hint when it is empty.
func popFree[T any](free *[][]T, hint int) []T {
	n := len(*free)
	if n == 0 {
		return make([]T, 0, hint)
	}
	b := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return b
}

// Totals returns the started/finished/failed query counts.
func (r *Registry) Totals() (started, finished, failed int64) {
	if r == nil {
		return 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.started, r.finished, r.failed
}

// Outcome is the part of a finished query's record that its finish
// sets and nothing changes after: what a trend or an SLO window reads.
type Outcome struct {
	Policy          string
	FinishVT        float64
	LatencyVirtualS float64
	Matches         int64
	OvershootRows   int64
	Rows            int
}

// OutcomesSince appends the outcomes of the finished queries at
// sequence >= seq to dst, and returns it with the next cursor. A
// query's sequence is its position in the finished stream, counting
// records already trimmed from retention: trimmed records are gone, but
// the cursor stays monotonic, so an incremental reader (the tsdb
// SLO-burn windows) never sees a record twice. It never waits for a
// diagnosis, so the engine goroutine (the tsdb tick) reads finished
// queries without blocking on the diagnosis goroutine.
func (r *Registry) OutcomesSince(dst []Outcome, seq int64) ([]Outcome, int64) {
	if r == nil {
		return dst, seq
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.dropped + int64(len(r.records))
	for _, rec := range r.records[min(max(seq-r.dropped, 0), int64(len(r.records))):] {
		dst = append(dst, Outcome{Policy: rec.Policy, FinishVT: rec.FinishVT, LatencyVirtualS: rec.LatencyVirtualS,
			Matches: rec.Matches, OvershootRows: rec.OvershootRows, Rows: rec.Rows})
	}
	return dst, next
}

func (r *Registry) inflightLocked() []QueryRecord {
	out := make([]QueryRecord, 0, len(r.inflight))
	for _, rec := range r.inflight {
		out = append(out, *rec)
	}
	slices.SortFunc(out, func(a, b QueryRecord) int { return cmp.Compare(a.JobID, b.JobID) })
	return out
}

// PolicyStats returns the rolling per-policy aggregates in
// first-seen order.
func (r *Registry) PolicyStats() []PolicyLatency {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.policyStatsLocked()
}

func (r *Registry) policyStatsLocked() []PolicyLatency {
	now := r.now()
	out := make([]PolicyLatency, 0, len(r.policies))
	for _, a := range r.policies {
		out = append(out, PolicyLatency{
			Policy:      a.name,
			Finished:    a.finished,
			Failed:      a.failed,
			QPS:         a.qps.rate(now),
			QPSWindowS:  a.qps.window,
			WallP50S:    a.wall.Quantile(0.50),
			WallP90S:    a.wall.Quantile(0.90),
			WallP99S:    a.wall.Quantile(0.99),
			WallMaxS:    a.wall.Max(),
			VirtualP50S: a.virtual.Quantile(0.50),
			VirtualP90S: a.virtual.Quantile(0.90),
			VirtualP99S: a.virtual.Quantile(0.99),
			VirtualMaxS: a.virtual.Max(),
		})
	}
	return out
}

// Dump snapshots the whole registry. The virtual clock is read from
// the engine, so callers must either hold the simulation lock or know
// the engine is idle.
func (r *Registry) Dump() Dump {
	if r == nil {
		return Dump{Schema: SchemaVersion}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.waitDiagnosedLocked()
	d := Dump{
		Schema:       SchemaVersion,
		VirtualTimeS: r.jt.Engine().Now(),
		WallTimeS:    r.now(),
		Started:      r.started,
		Finished:     r.finished,
		Failed:       r.failed,
		Policies:     r.policyStatsLocked(),
		InFlight:     r.inflightLocked(),
	}
	d.Queries = make([]QueryRecord, 0, len(r.records))
	for _, rec := range r.records {
		d.Queries = append(d.Queries, *rec)
	}
	return d
}

// WriteJSON writes the registry's Dump as indented JSON (schema
// SchemaVersion); see Dump.WriteJSON.
func (r *Registry) WriteJSON(w io.Writer) error { return r.Dump().WriteJSON(w) }
