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
package trace

import "sync"

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
// no-op and Enabled reports false.
//
// The simulation engine is single-threaded, but experiments run many
// engines concurrently and exporters may be called from test
// goroutines, so the Tracer locks internally.
type Tracer struct {
	mu sync.Mutex

	cfg     Config
	spans   []Span // ring storage, capacity cfg.capacity()
	head    int    // next write position
	n       int    // occupied entries (<= cap)
	dropped int64

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
	return &Tracer{cfg: cfg, reg: newRegistry()}
}

// Enabled reports whether the tracer records anything. It is the
// guard instrumentation sites use before assembling expensive args.
func (t *Tracer) Enabled() bool { return t != nil }

// Record appends a span to the ring, evicting the oldest when full.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	capacity := t.cfg.capacity()
	if len(t.spans) < capacity {
		if len(t.spans) == cap(t.spans) {
			// Double up to capacity: append grows a large slice by a
			// quarter at a time, allocating a full ring about five
			// times over on its way to capacity.
			grown := make([]Span, len(t.spans), min(max(2*cap(t.spans), 64), capacity))
			copy(grown, t.spans)
			t.spans = grown
		}
		t.spans = append(t.spans, s)
		t.head = len(t.spans) % capacity
		t.n = len(t.spans)
		return
	}
	t.spans[t.head] = s
	t.head = (t.head + 1) % capacity
	t.dropped++
}

// Instant records a zero-duration event.
func (t *Tracer) Instant(name, cat string, ts float64, job, task, node int) {
	t.Record(Span{Name: name, Cat: cat, Start: ts, End: ts, Job: job, Task: task, Node: node})
}

// Spans returns the buffered spans oldest-first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	if t.n < len(t.spans) || t.n < t.cfg.capacity() {
		out = append(out, t.spans[:t.n]...)
		return out
	}
	out = append(out, t.spans[t.head:]...)
	out = append(out, t.spans[:t.head]...)
	return out
}

// SpanCount returns the total number of spans ever recorded (buffered
// plus evicted): the sequence number the next Record call will receive.
// Pairing it with AppendSpansSince lets incremental consumers (the
// qstats registry) poll cheaply without copying the whole ring.
func (t *Tracer) SpanCount() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(t.n) + t.dropped
}

// AppendSpansSince appends the spans recorded at sequence >= from that
// are still buffered (oldest-first) to dst, and returns the extended
// slice plus the new cursor (the total recorded count). Spans evicted
// from the ring before being read are silently skipped — callers
// needing loss detection compare the requested cursor against
// SpanCount minus the buffered length. Passing the previous result
// truncated to zero length reuses its storage, so a polling consumer
// copies each span once and allocates only when a batch outgrows the
// buffer.
func (t *Tracer) AppendSpansSince(dst []Span, from int64) ([]Span, int64) {
	if t == nil {
		return dst, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := int64(t.n) + t.dropped
	oldest := total - int64(t.n)
	if from < oldest {
		from = oldest
	}
	if from >= total {
		return dst, total
	}
	if t.n < len(t.spans) || t.n < t.cfg.capacity() {
		// Ring not yet wrapped: sequence i lives at index i.
		return append(dst, t.spans[from:total]...), total
	}
	// Wrapped ring: the oldest sequence lives at head.
	start := (t.head + int(from-oldest)) % len(t.spans)
	if start+int(total-from) <= len(t.spans) {
		return append(dst, t.spans[start:start+int(total-from)]...), total
	}
	dst = append(dst, t.spans[start:]...)
	return append(dst, t.spans[:int(total-from)-(len(t.spans)-start)]...), total
}

// Dropped returns how many spans were evicted from the full ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// RecordMetricSample appends a utilization reading to the timeline.
func (t *Tracer) RecordMetricSample(m MetricSample) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples = append(t.samples, m)
}

// MetricSamples returns the utilization timeline collected so far.
func (t *Tracer) MetricSamples() []MetricSample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]MetricSample(nil), t.samples...)
}
