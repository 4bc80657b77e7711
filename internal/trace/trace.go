// Package trace is the virtual-clock-aware observability layer: a
// typed span/event recorder buffered in a fixed-capacity ring, an
// append-only audit log of Input Provider policy decisions, a periodic
// utilization timeline, and a counter/histogram registry — with
// exporters for Chrome trace-event JSON (Perfetto / chrome://tracing)
// and CSV timelines.
//
// The package is deliberately leaf-level: it knows nothing about the
// runtime that feeds it, so internal/sim, internal/mapreduce,
// internal/core and internal/experiments can all depend on it without
// cycles. All timestamps are virtual seconds as reported by the
// discrete-event engine.
//
// Every method is safe on a nil *Tracer and does nothing, so
// instrumentation sites call unconditionally; a disabled run costs one
// nil check per site.
//
// A Tracer has a single owner, like the sim.Engine it records: it takes
// no lock. Every JobTracker builds its own, so concurrent engines never
// share one. Only the goroutine that drives the engine writes to it,
// and a reader either is that goroutine or holds the driver's lock
// while the engine is still, as obs.Server.Publish, the end-of-run
// flushes and post-run reads do.
package trace

// DefaultCapacity is the span ring capacity for a Config zero value
// (oldest spans are evicted beyond it; see Tracer.Dropped).
const DefaultCapacity = 1 << 16

// Config tunes the tracing subsystem. It is embedded in
// mapreduce.Config as the single switch for the whole layer.
type Config struct {
	// Enabled turns tracing on; when false no Tracer is constructed
	// and every instrumentation site reduces to a nil check.
	Enabled bool
	// Capacity bounds the span ring (default DefaultCapacity). The
	// policy audit log and the metric timeline are not ring-bounded:
	// they are the ground truth experiments re-read, and they grow by
	// one entry per evaluation / poll interval, not per task.
	Capacity int
}

func (c Config) capacity() int {
	if c.Capacity > 0 {
		return c.Capacity
	}
	return DefaultCapacity
}

// Span names emitted by the runtime. A map attempt's timeline is
// queue-wait → startup → disk-read [→ net-read] → cpu, enclosed in a
// map-attempt span; a reduce attempt's is startup → shuffle → sort →
// reduce → output-write, enclosed in a reduce-attempt span.
const (
	SpanMapAttempt    = "map-attempt"
	SpanQueueWait     = "queue-wait"
	SpanStartup       = "startup"
	SpanDiskRead      = "disk-read"
	SpanNetRead       = "net-read"
	SpanMapCPU        = "cpu"
	SpanReduceAttempt = "reduce-attempt"
	SpanShuffle       = "shuffle"
	SpanSort          = "sort"
	SpanReduceCPU     = "reduce"
	SpanOutputWrite   = "output-write"
	SpanJob           = "job"
	SpanMapPhase      = "map-phase"
	SpanReducePhase   = "reduce-phase"

	// Instant events.
	EventHeartbeat         = "heartbeat"
	EventJobSubmitted      = "job-submitted"
	EventSpeculativeLaunch = "speculative-launch"
	EventMapKilled         = "map-killed"
	EventMapFailed         = "map-failed"
	EventPolicySwitch      = "policy-switch"
)

// Span categories (Chrome trace "cat" field).
const (
	CatMap    = "map"
	CatReduce = "reduce"
	CatJob    = "job"
	CatNode   = "node"
	CatPolicy = "policy"
)

// Attempt outcomes recorded on enclosing map-attempt/reduce-attempt
// spans.
const (
	OutcomeOK     = "ok"
	OutcomeFailed = "failed"
	OutcomeKilled = "killed"
	// OutcomeLate marks an attempt whose work finished after a sibling
	// already completed the task (or the job died) in the same instant;
	// its result is discarded and it appears in no JobTracker counter.
	OutcomeLate = "late"
)

// Span is one typed interval (or, when End == Start, one instant
// event) on the virtual timeline, keyed by job/task/attempt/node.
// Fields that do not apply hold -1 (ids) or 0 (attempt).
type Span struct {
	// Name is one of the Span*/Event* constants (or a caller-defined
	// name for external producers).
	Name string
	// Cat is the Chrome trace category (Cat* constants).
	Cat string
	// Start and End bound the span in virtual seconds; End == Start
	// marks an instant event.
	Start, End float64
	// Job, Task, Attempt, Node key the span to the runtime entity.
	Job, Task, Attempt, Node int
	// Speculative marks backup attempts.
	Speculative bool
	// Outcome is set on enclosing attempt spans (Outcome* constants).
	Outcome string
}

// Instant reports whether the span is a zero-duration event.
func (s Span) Instant() bool { return s.End == s.Start }

// Duration returns End - Start.
func (s Span) Duration() float64 { return s.End - s.Start }

// MetricSample is one interval-averaged utilization reading, the
// trace-layer form of the paper's 30-second monitoring rows.
type MetricSample struct {
	// Time is the interval's end (virtual seconds).
	Time float64
	// CPUUtilPct is mean CPU utilisation over the interval, in percent
	// of total core capacity.
	CPUUtilPct float64
	// DiskReadKBs is the mean per-disk transfer rate over the interval
	// in KB/s.
	DiskReadKBs float64
	// SlotOccupancyPct is the mean fraction of map slots occupied.
	SlotOccupancyPct float64
}

// Tracer records spans, policy decisions, metric samples, counters and
// histograms. A nil Tracer is the disabled state: every method is a
// no-op and Enabled reports false. It is not safe for concurrent use;
// see the package comment for who may call it.
type Tracer struct {
	capacity int    // of the span ring: cfg.capacity()
	spans    []Span // ring storage, filled in order up to capacity
	head     int    // next write position once the ring is full
	dropped  int64

	decisions []PolicyDecision
	samples   []MetricSample

	reg registry
}

// New returns a Tracer for the configuration, or nil (the disabled
// tracer) when cfg.Enabled is false.
func New(cfg Config) *Tracer {
	if !cfg.Enabled {
		return nil
	}
	return &Tracer{capacity: cfg.capacity(), reg: newRegistry()}
}

// Enabled reports whether the tracer records anything. It is the
// guard instrumentation sites use before assembling expensive args.
func (t *Tracer) Enabled() bool { return t != nil }

// Record appends a span to the ring, evicting the oldest when full.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if len(t.spans) < t.capacity {
		if len(t.spans) == cap(t.spans) {
			// Double up to capacity: append grows a large slice by a
			// quarter at a time, allocating a full ring about five
			// times over on its way to capacity.
			grown := make([]Span, len(t.spans), min(max(2*cap(t.spans), 64), t.capacity))
			copy(grown, t.spans)
			t.spans = grown
		}
		t.spans = append(t.spans, s)
		return
	}
	t.spans[t.head] = s
	if t.head++; t.head == len(t.spans) {
		t.head = 0
	}
	t.dropped++
}

// Instant records a zero-duration event.
func (t *Tracer) Instant(name, cat string, ts float64, job, task, node int) {
	t.Record(Span{Name: name, Cat: cat, Start: ts, End: ts, Job: job, Task: task, Node: node})
}

// Spans returns a copy of the buffered spans oldest-first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	a, b, _ := t.SpansSince(0)
	return append(append(make([]Span, 0, len(a)+len(b)), a...), b...)
}

// SpanCount returns the total number of spans ever recorded (buffered
// plus evicted): the sequence number the next Record call will receive.
func (t *Tracer) SpanCount() int64 {
	if t == nil {
		return 0
	}
	return int64(len(t.spans)) + t.dropped
}

// SpansSince returns the spans recorded at sequence >= from that are
// still buffered, oldest-first, as at most two runs of the ring (b is
// empty unless the read wraps), plus the new cursor: the total
// recorded count. Spans evicted before being read are skipped; a
// caller that needs to detect the loss compares from with SpanCount
// minus the buffered length. The runs alias the ring, so they copy
// nothing, must not be modified, and are only valid until the next
// Record: a polling consumer (the qstats registry) copies each span
// once, straight to where it keeps it.
func (t *Tracer) SpansSince(from int64) (a, b []Span, next int64) {
	if t == nil {
		return nil, nil, 0
	}
	total := int64(len(t.spans)) + t.dropped
	oldest := t.dropped
	from = max(from, oldest)
	if from >= total {
		return nil, nil, total
	}
	// The oldest buffered sequence lives at index 0 until the ring
	// wraps, and at head after (head is 0 until then).
	start := (t.head + int(from-oldest)) % len(t.spans)
	if end := start + int(total-from); end <= len(t.spans) {
		return t.spans[start:end:end], nil, total
	}
	wrapped := int(total-from) - (len(t.spans) - start)
	return t.spans[start:], t.spans[:wrapped:wrapped], total
}

// Dropped returns how many spans were evicted from the full ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// RecordMetricSample appends a utilization reading to the timeline.
func (t *Tracer) RecordMetricSample(m MetricSample) {
	if t == nil {
		return
	}
	t.samples = append(t.samples, m)
}

// MetricSamples returns the utilization timeline collected so far.
func (t *Tracer) MetricSamples() []MetricSample {
	if t == nil {
		return nil
	}
	return append([]MetricSample(nil), t.samples...)
}
