// Package diag is the post-run job diagnosis engine: it consumes the
// trace span stream and the policy decision audit log and produces,
// per job, a critical path (the chain of attempts and waits whose
// durations sum to the makespan), a time breakdown partitioning that
// makespan into wait/read/compute/shuffle/reduce categories, and a
// set of detected anomalies (stragglers, speculative-kill waste,
// scan-stall spikes). It depends only on internal/trace, so every
// layer above (obs reports, the facade, both CLIs, experiments) can
// use it without import cycles.
package diag

import (
	"fmt"
	"math"
	"sort"

	"dynamicmr/internal/trace"
)

// Critical-path node kinds. The schema is part of the external
// contract (dynmr explain -json, per-cell CSVs); see DESIGN.md.
const (
	// KindSlotWait is time an enqueued task spent waiting for a free
	// slot (the queue-wait span) plus scheduling gaps between attempts
	// on the path (e.g. a reduce waiting for the next heartbeat after
	// the map phase finished).
	KindSlotWait = "slot-wait"
	// KindProviderWait is time the job had no runnable work because
	// the Input Provider had not granted splits yet: the gap ends at a
	// GROW/INIT decision, or WAIT/SKIP verdicts fall inside it.
	KindProviderWait = "provider-wait"
	// KindStartup is task JVM/process startup.
	KindStartup = "startup"
	// KindDiskReadLocal / KindDiskReadRemote split the disk-read phase
	// by whether the attempt read its split from the local node (no
	// net-read phase) or from a remote replica.
	KindDiskReadLocal  = "disk-read-local"
	KindDiskReadRemote = "disk-read-remote"
	// KindNetRead is the network transfer of a non-local split.
	KindNetRead = "net-read"
	// KindMapCPU is map-side predicate evaluation / record processing.
	KindMapCPU = "map-cpu"
	// KindShuffle is the reduce-side fetch of map output.
	KindShuffle = "shuffle"
	// KindSort is the reduce-side merge sort.
	KindSort = "sort"
	// KindReduceCPU is the reduce function proper.
	KindReduceCPU = "reduce-cpu"
	// KindOutputWrite is the reduce output write.
	KindOutputWrite = "output-write"
	// KindUntraced covers holes the extractor could not attribute
	// (e.g. phase spans evicted from a saturated trace ring).
	KindUntraced = "untraced"
)

// Anomaly kinds.
const (
	AnomalyStraggler        = "straggler"
	AnomalySpeculativeWaste = "speculative-waste"
	AnomalyScanStalls       = "scan-stalls"
)

// PathNode is one interval on a job's critical path. Nodes tile
// [submit, finish] exactly: node i's End equals node i+1's Start, the
// first Start is the submit time and the last End the finish time.
type PathNode struct {
	Kind  string  `json:"kind"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	// Task/Attempt/Node identify the attempt a phase node belongs to;
	// wait/gap nodes carry the *downstream* attempt (the one the wait
	// delayed) where known, else -1/0/-1.
	Task    int    `json:"task"`
	Attempt int    `json:"attempt"`
	Node    int    `json:"node"`
	Detail  string `json:"detail,omitempty"`
}

// Duration returns the node length in virtual seconds.
func (n PathNode) Duration() float64 { return n.End - n.Start }

// Breakdown partitions a job's makespan. Fields are virtual seconds;
// Total() always equals the makespan (pinned by CheckInvariants and
// by tests), because the breakdown is integrated directly over the
// critical path.
type Breakdown struct {
	SlotWaitS       float64 `json:"slot_wait_s"`
	ProviderWaitS   float64 `json:"provider_wait_s"`
	StartupS        float64 `json:"startup_s"`
	DataReadLocalS  float64 `json:"data_read_local_s"`
	DataReadRemoteS float64 `json:"data_read_remote_s"`
	MapComputeS     float64 `json:"map_compute_s"`
	ShuffleS        float64 `json:"shuffle_s"`
	ReduceS         float64 `json:"reduce_s"`
	UntracedS       float64 `json:"untraced_s"`
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.SlotWaitS + b.ProviderWaitS + b.StartupS + b.DataReadLocalS +
		b.DataReadRemoteS + b.MapComputeS + b.ShuffleS + b.ReduceS + b.UntracedS
}

// add accumulates a path node into the matching category.
func (b *Breakdown) add(n PathNode) {
	d := n.Duration()
	switch n.Kind {
	case KindSlotWait:
		b.SlotWaitS += d
	case KindProviderWait:
		b.ProviderWaitS += d
	case KindStartup:
		b.StartupS += d
	case KindDiskReadLocal:
		b.DataReadLocalS += d
	case KindDiskReadRemote, KindNetRead:
		b.DataReadRemoteS += d
	case KindMapCPU:
		b.MapComputeS += d
	case KindShuffle:
		b.ShuffleS += d
	case KindSort, KindReduceCPU, KindOutputWrite:
		b.ReduceS += d
	default:
		b.UntracedS += d
	}
}

// Anomaly is one detected irregularity, either job-scoped (straggler,
// speculative waste) or cluster-scoped (scan stalls; Job == -1).
type Anomaly struct {
	Kind string `json:"kind"`
	Job  int    `json:"job"`
	// Task/Attempt/Node are set for straggler anomalies, else -1/0/-1.
	Task    int `json:"task"`
	Attempt int `json:"attempt"`
	Node    int `json:"node"`
	// Value is the measured quantity (seconds for stragglers and
	// speculative waste, stall ratio for scan stalls) and Threshold
	// the bound it exceeded.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Detail    string  `json:"detail"`
}

// JobDiagnosis is the full diagnosis of one job.
type JobDiagnosis struct {
	JobID   int     `json:"job"`
	Outcome string  `json:"outcome"` // "ok" or "failed"
	SubmitS float64 `json:"submit_s"`
	FinishS float64 `json:"finish_s"`
	// MakespanS is FinishS - SubmitS (the job span's extent).
	MakespanS    float64    `json:"makespan_s"`
	CriticalPath []PathNode `json:"critical_path"`
	Breakdown    Breakdown  `json:"breakdown"`
	Anomalies    []Anomaly  `json:"anomalies"`
}

// SchemaVersion identifies the JSON layout emitted by WriteJSON;
// consumers (CI validation, downstream tooling) key on it.
const SchemaVersion = "dynamicmr.diag/1"

// Report is the diagnosis of every finished job visible in the trace,
// plus cluster-level context.
type Report struct {
	Schema string         `json:"schema"`
	Jobs   []JobDiagnosis `json:"jobs"`
	// ClusterAnomalies holds anomalies not tied to one job.
	ClusterAnomalies []Anomaly `json:"cluster_anomalies"`
	// Counters snapshots the trace counter registry.
	Counters map[string]int64 `json:"counters,omitempty"`
	// DroppedSpans is the trace ring's eviction count; when non-zero,
	// paths may contain untraced filler.
	DroppedSpans int64 `json:"dropped_spans"`
}

// The analyzers' thresholds.
const (
	// stragglerSigma is k in the "duration > mean + k*sigma" straggler
	// rule.
	stragglerSigma = 3.0
	// stragglerMinAttempts is the minimum number of completed map
	// attempts in a job before the straggler rule applies.
	stragglerMinAttempts = 4
	// scanStallRatio is the map.scan_stalls / map.scan_async fraction
	// above which a cluster scan-stall anomaly is reported.
	scanStallRatio = 0.5
)

// FromTracer diagnoses every job recorded by tr. It returns nil when
// tracing is disabled (nil tracer). It reads the span ring in place,
// so the caller holds the engine still, as every flush does.
func FromTracer(tr *trace.Tracer) *Report {
	if !tr.Enabled() {
		return nil
	}
	first, second, _ := tr.SpansSince(0)
	return analyze(tr.PolicyDecisions(), tr.Counters(), tr.Dropped(), first, second)
}

// Analyze builds a Report from raw trace data. spans must be in
// recording order (Tracer.Spans() order); decisions likewise.
func Analyze(spans []trace.Span, decisions []trace.PolicyDecision,
	counters map[string]int64, dropped int64) *Report {
	return analyze(decisions, counters, dropped, spans)
}

// analyze is Analyze over spans split into runs, fed in order.
func analyze(decisions []trace.PolicyDecision, counters map[string]int64,
	dropped int64, runs ...[]trace.Span) *Report {
	byID := make(map[int]*JobTrace)
	get := func(id int) *JobTrace {
		j := byID[id]
		if j == nil {
			j = new(JobTrace)
			j.Reset(id)
			byID[id] = j
		}
		return j
	}
	for _, run := range runs {
		for _, s := range run {
			if s.Job >= 0 {
				get(s.Job).Add(s)
			}
		}
	}
	for _, d := range decisions {
		get(d.JobID).AddDecision(d)
	}
	rep := &Report{Schema: SchemaVersion, Counters: counters, DroppedSpans: dropped}
	for _, j := range byID {
		// Jobs without an enclosing job span (still running, or the
		// span was evicted) cannot be diagnosed; skip them.
		if j.finished() {
			rep.Jobs = append(rep.Jobs, j.diagnose())
		}
	}
	sort.Slice(rep.Jobs, func(a, b int) bool { return rep.Jobs[a].JobID < rep.Jobs[b].JobID })
	rep.ClusterAnomalies = clusterAnomalies(counters)
	return rep
}

// attempt pairs an enclosing attempt span with its phase chain.
type attempt struct {
	span      trace.Span
	kind      string // trace.CatMap or trace.CatReduce
	phases    []trace.Span
	queueWait *trace.Span
}

type attemptKey struct {
	task, att int
	cat       string
}

// attemptTrace is the phase chain and queue wait recorded under one
// attempt key, in recording order.
type attemptTrace struct {
	phases       []trace.Span
	queueWait    trace.Span
	hasQueueWait bool
}

// JobTrace collects one job's spans and policy decisions and diagnoses
// the job from them. Analyze keeps one per job; the qstats registry
// keeps a single one and Resets it for every finished query, so its
// buffers are reused instead of rebuilt. The zero value must be Reset
// before use, and a JobTrace is not safe for concurrent use.
type JobTrace struct {
	id     int
	span   trace.Span // the enclosing SpanJob span; Start is NaN until seen
	nspans int        // spans added, for the no-job-span error
	// attempts holds ok and failed attempts of both kinds, in recording
	// order; killed holds killed ones.
	attempts []attempt
	killed   []trace.Span
	// okMaps feeds the straggler detector.
	okMaps []trace.Span
	// growTimes / waitTimes are decision timestamps for gap
	// classification, sorted ascending by diagnose.
	growTimes []float64
	waitTimes []float64
	// traces holds phases and queue waits per attempt key; byKey
	// indexes it. Entries past len(traces) keep their phase buffers for
	// reuse.
	traces []attemptTrace
	byKey  map[attemptKey]int
}

// Reset empties the collector for job id, keeping its buffers.
func (j *JobTrace) Reset(id int) {
	j.id = id
	j.span = trace.Span{Job: id, Start: math.NaN()}
	j.nspans = 0
	j.attempts = j.attempts[:0]
	j.killed = j.killed[:0]
	j.okMaps = j.okMaps[:0]
	j.growTimes = j.growTimes[:0]
	j.waitTimes = j.waitTimes[:0]
	j.traces = j.traces[:0]
	clear(j.byKey)
}

// Add records one of the job's spans. Spans must arrive in recording
// order: the last job span and the last queue wait of an attempt win,
// and phases that share a Start keep their recording order.
func (j *JobTrace) Add(s trace.Span) {
	j.nspans++
	switch s.Name {
	case trace.SpanJob:
		j.span = s
	case trace.SpanMapAttempt, trace.SpanReduceAttempt:
		switch s.Outcome {
		case trace.OutcomeOK, trace.OutcomeFailed:
			j.attempts = append(j.attempts, attempt{span: s, kind: s.Cat})
			if s.Name == trace.SpanMapAttempt && s.Outcome == trace.OutcomeOK {
				j.okMaps = append(j.okMaps, s)
			}
		case trace.OutcomeKilled:
			j.killed = append(j.killed, s)
		}
	case trace.SpanQueueWait:
		at := j.attemptTrace(attemptKey{s.Task, s.Attempt, s.Cat})
		at.queueWait, at.hasQueueWait = s, true
	case trace.SpanStartup, trace.SpanDiskRead, trace.SpanNetRead, trace.SpanMapCPU,
		trace.SpanShuffle, trace.SpanSort, trace.SpanReduceCPU, trace.SpanOutputWrite:
		if s.Cat == trace.CatMap || s.Cat == trace.CatReduce {
			at := j.attemptTrace(attemptKey{s.Task, s.Attempt, s.Cat})
			at.phases = append(at.phases, s)
		}
	}
}

// attemptTrace returns the entry for k, opening it on first use.
func (j *JobTrace) attemptTrace(k attemptKey) *attemptTrace {
	if i, ok := j.byKey[k]; ok {
		return &j.traces[i]
	}
	if j.byKey == nil {
		j.byKey = make(map[attemptKey]int)
	}
	j.byKey[k] = len(j.traces)
	if len(j.traces) < cap(j.traces) {
		j.traces = j.traces[:len(j.traces)+1]
		at := &j.traces[len(j.traces)-1]
		at.phases, at.hasQueueWait = at.phases[:0], false
		return at
	}
	j.traces = append(j.traces, attemptTrace{})
	return &j.traces[len(j.traces)-1]
}

// AddDecision records one of the job's policy decisions.
func (j *JobTrace) AddDecision(d trace.PolicyDecision) {
	switch d.Verdict {
	case trace.VerdictGrow, trace.VerdictInit:
		j.growTimes = append(j.growTimes, d.Time)
	case trace.VerdictWait, trace.VerdictSkip:
		j.waitTimes = append(j.waitTimes, d.Time)
	}
}

// finished reports whether the job's enclosing span has been added.
func (j *JobTrace) finished() bool { return !math.IsNaN(j.span.Start) }

// Diagnose diagnoses the collected job. The returned
// diagnosis has passed CheckInvariants; it shares no memory with the
// collector, so the collector can be Reset while the diagnosis is in
// use.
func (j *JobTrace) Diagnose() (*JobDiagnosis, error) {
	if !j.finished() {
		return nil, fmt.Errorf("diag: no finished job %d in trace slice (%d spans)", j.id, j.nspans)
	}
	d := j.diagnose()
	if err := d.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("job %d: %w", j.id, err)
	}
	return &d, nil
}

// diagnose attaches each attempt's phase chain (sorted by Start) and
// queue wait, sorts the decision times, and runs diagnoseJob.
func (j *JobTrace) diagnose() JobDiagnosis {
	for i := range j.attempts {
		a := &j.attempts[i]
		a.phases, a.queueWait = nil, nil
		k, ok := j.byKey[attemptKey{a.span.Task, a.span.Attempt, a.span.Cat}]
		if !ok {
			continue
		}
		at := &j.traces[k]
		ph := at.phases
		sort.Slice(ph, func(x, y int) bool { return ph[x].Start < ph[y].Start })
		a.phases = ph
		if at.hasQueueWait {
			a.queueWait = &at.queueWait
		}
	}
	sort.Float64s(j.growTimes)
	sort.Float64s(j.waitTimes)
	return diagnoseJob(j)
}

func diagnoseJob(j *JobTrace) JobDiagnosis {
	d := JobDiagnosis{
		JobID:     j.id,
		Outcome:   j.span.Outcome,
		SubmitS:   j.span.Start,
		FinishS:   j.span.End,
		MakespanS: j.span.End - j.span.Start,
	}
	if d.Outcome == "" {
		d.Outcome = trace.OutcomeOK
	}
	d.CriticalPath = criticalPath(j)
	for _, n := range d.CriticalPath {
		d.Breakdown.add(n)
	}
	d.Anomalies = jobAnomalies(j)
	return d
}

// CheckInvariants verifies the pinned diagnosis contract for every
// job: the critical path tiles [submit, finish] contiguously and the
// breakdown components sum to the makespan.
func (r *Report) CheckInvariants() error {
	for _, j := range r.Jobs {
		if err := j.CheckInvariants(); err != nil {
			return fmt.Errorf("job %d: %w", j.JobID, err)
		}
	}
	return nil
}

// CheckInvariants verifies the contract for one job diagnosis; see
// Report.CheckInvariants. Exported so per-query consumers (the qstats
// registry) can re-assert the invariant on incrementally produced
// diagnoses.
func (j JobDiagnosis) CheckInvariants() error {
	tol := 1e-6 * math.Max(1, j.MakespanS)
	if j.MakespanS < 0 {
		return fmt.Errorf("negative makespan %g", j.MakespanS)
	}
	if j.MakespanS > tol && len(j.CriticalPath) == 0 {
		return fmt.Errorf("empty critical path for makespan %g", j.MakespanS)
	}
	if n := len(j.CriticalPath); n > 0 {
		if math.Abs(j.CriticalPath[0].Start-j.SubmitS) > tol {
			return fmt.Errorf("path starts at %g, submit is %g", j.CriticalPath[0].Start, j.SubmitS)
		}
		if math.Abs(j.CriticalPath[n-1].End-j.FinishS) > tol {
			return fmt.Errorf("path ends at %g, finish is %g", j.CriticalPath[n-1].End, j.FinishS)
		}
		for i := 0; i+1 < n; i++ {
			if math.Abs(j.CriticalPath[i].End-j.CriticalPath[i+1].Start) > tol {
				return fmt.Errorf("path gap between node %d (end %g) and node %d (start %g)",
					i, j.CriticalPath[i].End, i+1, j.CriticalPath[i+1].Start)
			}
		}
		for i, nd := range j.CriticalPath {
			if nd.End < nd.Start-tol {
				return fmt.Errorf("node %d has negative duration [%g, %g]", i, nd.Start, nd.End)
			}
		}
	}
	if diff := math.Abs(j.Breakdown.Total() - j.MakespanS); diff > tol {
		return fmt.Errorf("breakdown total %g != makespan %g (diff %g)",
			j.Breakdown.Total(), j.MakespanS, diff)
	}
	return nil
}
