package trace

// Policy decision verdicts. GROW/WAIT/EOI mirror the paper's
// three-way Input Provider response (§III-A); INIT records the
// submission-time grab and SKIP records an evaluation deferred by the
// work threshold before the provider was consulted (§III-B).
const (
	VerdictInit = "INIT"
	VerdictGrow = "GROW"
	VerdictWait = "WAIT"
	VerdictEOI  = "EOI"
	VerdictSkip = "SKIP"
)

// PolicyDecision is one entry of the Input Provider audit log: the
// inputs the evaluation saw (progress, map-output statistics, cluster
// load, the work threshold in force) and its verdict, so growth-curve
// anomalies in the Figure 5/6/7 reproductions can be explained from
// the log instead of re-derived.
type PolicyDecision struct {
	// Time of the evaluation (virtual seconds).
	Time float64
	// JobID identifies the dynamic job.
	JobID int
	// Policy is the governing policy's name — for adaptive jobs, the
	// policy selected at this step.
	Policy string
	// Verdict is one of the Verdict* constants.
	Verdict string
	// Added is the number of partitions handed to the job (GROW only).
	Added int
	// GrabLimit is the policy's partition cap for this step.
	GrabLimit int

	// Job-progress inputs.
	ScheduledMaps    int
	CompletedMaps    int
	PendingMaps      int
	RunningMaps      int
	MapInputRecords  int64
	MapOutputRecords int64

	// Cluster-load inputs (TS/AS/QT of the grab-limit expressions).
	TotalSlots  int
	FreeSlots   int
	QueuedTasks int
	// WorkThresholdPct is the policy's threshold; ProgressPct is the
	// newly-completed-work percentage measured against it.
	WorkThresholdPct float64
	ProgressPct      float64
}

// RecordPolicyDecision appends an entry to the audit log. Unlike the
// span ring the log is unbounded: it grows by one entry per
// evaluation interval, and completeness is the point of an audit.
func (t *Tracer) RecordPolicyDecision(d PolicyDecision) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.decisions = append(t.decisions, d)
	t.reg.counters[CounterPolicyEvals]++
	t.mu.Unlock()
}

// PolicyDecisions returns a copy of the audit log in record order.
func (t *Tracer) PolicyDecisions() []PolicyDecision {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]PolicyDecision(nil), t.decisions...)
}

// PolicyDecisionsSince copies the audit log entries from index from
// onward (clamped to the log's bounds), so a periodic sampler consumes
// the log incrementally instead of re-copying the whole history every
// tick.
func (t *Tracer) PolicyDecisionsSince(from int) []PolicyDecision {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(t.decisions) {
		return nil
	}
	return append([]PolicyDecision(nil), t.decisions[from:]...)
}
