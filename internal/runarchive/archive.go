// Package runarchive is the cross-run observability bundle: a
// versioned, self-contained file capturing everything one run's
// observability stack produced — trace spans, the Input Provider
// decision audit log, the utilization timeline, the obs sampler's
// per-node snapshots, the counter/gauge registry, per-job diagnoses
// and the per-query registry dump — plus
// the run configuration that produced it (policy, input path, scan
// workers, seed, git revision). It is the one output file of a run:
// Render regenerates each single-run view from it (`dynmr render`),
// and two archives are the inputs to diag.Compare / `dynmr diff`,
// which attributes a regression or a win between runs instead of
// eyeballing two `dynmr explain` outputs.
//
// The on-disk format is gzip-compressed NDJSON: the first record is
// the manifest (schema SchemaVersion), every following record is a
// typed line {"t": <kind>, "d": <payload>}. All payloads use stable
// snake_case field names independent of the in-memory trace structs,
// so the file format is an external contract. Dump → Load → Dump is
// byte-identical (pinned by tests): map-valued payloads are emitted
// with sorted keys by encoding/json and floats round-trip through the
// shortest-representation encoder.
package runarchive

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"strconv"

	"dynamicmr/internal/diag"
	"dynamicmr/internal/obs"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/tsdb"
)

// SchemaVersion identifies the archive layout; consumers (dynmr diff,
// CI validation) key on it.
const SchemaVersion = "dynamicmr.archive/1"

// Record kinds of the NDJSON stream.
const (
	recManifest  = "manifest"
	recSpan      = "span"
	recDecision  = "decision"
	recSample    = "sample"
	recSnapshot  = "snapshot"
	recCounters  = "counters"
	recGauges    = "gauges"
	recDiagnosis = "diag"
	recQueries   = "qstats"
	recSeries    = "tsdb"
	recAlerts    = "alerts"
)

// RunConfig is the run's provenance: enough to re-run it and to tell
// whether two archives are comparable twins.
type RunConfig struct {
	// Policy is the growth policy the run's queries used ("" when the
	// run mixed policies; see Params).
	Policy string `json:"policy,omitempty"`
	// InputPath is the map-task read path ("skip" or "index"; empty
	// means the full-scan default, keeping full-mode archives
	// byte-identical to those written before the field existed).
	InputPath string `json:"input_path,omitempty"`
	// ScanWorkers is the scan-executor pool size (0 = inline scans).
	ScanWorkers int `json:"scan_workers"`
	// Seed is the dataset seed.
	Seed int64 `json:"seed"`
	// GitRev is the VCS revision of the binary that produced the run
	// (see GitRev; empty when the build carries no VCS stamp).
	GitRev string `json:"git_rev,omitempty"`
	// Params carries free-form run parameters (scale, skew, k, ...).
	Params map[string]string `json:"params,omitempty"`
}

// Counts records how many payload lines of each kind follow the
// manifest; Load verifies the stream against it.
type Counts struct {
	Spans     int `json:"spans"`
	Decisions int `json:"decisions"`
	Samples   int `json:"samples"`
	Jobs      int `json:"jobs"`
	Queries   int `json:"queries"`
	// Series / AlertEvents count the time-series and alert layers;
	// omitempty keeps manifests of runs without a tsdb engine
	// byte-identical to those written before the fields existed.
	Series      int `json:"series,omitempty"`
	AlertEvents int `json:"alert_events,omitempty"`
	// Snapshots counts the obs sampler's snapshots; omitempty keeps
	// manifests of runs without a sampler byte-identical to those
	// written before the field existed.
	Snapshots int `json:"snapshots,omitempty"`
}

// Manifest is the archive's first record.
type Manifest struct {
	Schema string `json:"schema"`
	// Label names the run ("figure6_z1_LA", "serve 2026-08-08", ...);
	// diff output uses it as the side heading.
	Label string `json:"label"`
	// CreatedUnixMS is the wall-clock write time (0 when the producer
	// wants deterministic bytes, e.g. golden tests).
	CreatedUnixMS int64 `json:"created_unix_ms,omitempty"`
	// VirtualTimeS is the engine clock when the archive was cut.
	VirtualTimeS float64   `json:"virtual_time_s"`
	Config       RunConfig `json:"config"`
	Counts       Counts    `json:"counts"`
	// DroppedSpans is the trace ring's eviction count at write time;
	// when non-zero the span stream is incomplete (diagnoses may carry
	// untraced filler).
	DroppedSpans int64 `json:"dropped_spans"`
}

// spanRecord is the wire form of trace.Span (which carries no JSON
// tags of its own — the archive schema is decoupled from the in-memory
// layout on purpose).
type spanRecord struct {
	Name        string  `json:"name"`
	Cat         string  `json:"cat,omitempty"`
	Start       float64 `json:"start_s"`
	End         float64 `json:"end_s"`
	Job         int     `json:"job"`
	Task        int     `json:"task"`
	Attempt     int     `json:"attempt"`
	Node        int     `json:"node"`
	Speculative bool    `json:"speculative,omitempty"`
	Outcome     string  `json:"outcome,omitempty"`
}

func toSpanRecord(s trace.Span) spanRecord {
	return spanRecord{Name: s.Name, Cat: s.Cat, Start: s.Start, End: s.End,
		Job: s.Job, Task: s.Task, Attempt: s.Attempt, Node: s.Node,
		Speculative: s.Speculative, Outcome: s.Outcome}
}

func (r spanRecord) span() trace.Span {
	return trace.Span{Name: r.Name, Cat: r.Cat, Start: r.Start, End: r.End,
		Job: r.Job, Task: r.Task, Attempt: r.Attempt, Node: r.Node,
		Speculative: r.Speculative, Outcome: r.Outcome}
}

// decisionRecord is the wire form of trace.PolicyDecision.
type decisionRecord struct {
	Time             float64 `json:"time_s"`
	JobID            int     `json:"job"`
	Policy           string  `json:"policy"`
	Verdict          string  `json:"verdict"`
	Added            int     `json:"added"`
	GrabLimit        int     `json:"grab_limit"`
	ScheduledMaps    int     `json:"scheduled_maps"`
	CompletedMaps    int     `json:"completed_maps"`
	PendingMaps      int     `json:"pending_maps"`
	RunningMaps      int     `json:"running_maps"`
	MapInputRecords  int64   `json:"map_input_records"`
	MapOutputRecords int64   `json:"map_output_records"`
	TotalSlots       int     `json:"total_slots"`
	FreeSlots        int     `json:"free_slots"`
	QueuedTasks      int     `json:"queued_tasks"`
	WorkThresholdPct float64 `json:"work_threshold_pct"`
	ProgressPct      float64 `json:"progress_pct"`
}

func toDecisionRecord(d trace.PolicyDecision) decisionRecord {
	return decisionRecord{Time: d.Time, JobID: d.JobID, Policy: d.Policy,
		Verdict: d.Verdict, Added: d.Added, GrabLimit: d.GrabLimit,
		ScheduledMaps: d.ScheduledMaps, CompletedMaps: d.CompletedMaps,
		PendingMaps: d.PendingMaps, RunningMaps: d.RunningMaps,
		MapInputRecords: d.MapInputRecords, MapOutputRecords: d.MapOutputRecords,
		TotalSlots: d.TotalSlots, FreeSlots: d.FreeSlots, QueuedTasks: d.QueuedTasks,
		WorkThresholdPct: d.WorkThresholdPct, ProgressPct: d.ProgressPct}
}

func (r decisionRecord) decision() trace.PolicyDecision {
	return trace.PolicyDecision{Time: r.Time, JobID: r.JobID, Policy: r.Policy,
		Verdict: r.Verdict, Added: r.Added, GrabLimit: r.GrabLimit,
		ScheduledMaps: r.ScheduledMaps, CompletedMaps: r.CompletedMaps,
		PendingMaps: r.PendingMaps, RunningMaps: r.RunningMaps,
		MapInputRecords: r.MapInputRecords, MapOutputRecords: r.MapOutputRecords,
		TotalSlots: r.TotalSlots, FreeSlots: r.FreeSlots, QueuedTasks: r.QueuedTasks,
		WorkThresholdPct: r.WorkThresholdPct, ProgressPct: r.ProgressPct}
}

// sampleRecord is the wire form of trace.MetricSample.
type sampleRecord struct {
	Time             float64 `json:"time_s"`
	CPUUtilPct       float64 `json:"cpu_util_pct"`
	DiskReadKBs      float64 `json:"disk_read_kb_s"`
	SlotOccupancyPct float64 `json:"slot_occupancy_pct"`
}

// gaugeRecord is the wire form of trace.GaugeSnapshot.
type gaugeRecord struct {
	Last  float64 `json:"last"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
}

// Archive is one run's bundle in memory.
type Archive struct {
	Manifest  Manifest
	Spans     []trace.Span
	Decisions []trace.PolicyDecision
	Samples   []trace.MetricSample
	// Snapshots is the obs sampler's per-node series (obs.Snapshot's
	// JSON form is the record); nil when the run had no sampler.
	Snapshots []obs.Snapshot
	Counters  map[string]int64
	Gauges    map[string]trace.GaugeSnapshot
	// Diagnosis is the per-job diag report (schema dynamicmr.diag/1)
	// computed at write time, so diffing does not re-run the analyzer.
	Diagnosis *diag.Report
	// Queries is the per-query registry dump (schema
	// dynamicmr.qstats/1); nil when the run had no qstats layer.
	Queries *qstats.Dump
	// Series is the time-series engine dump (schema dynamicmr.tsdb/1);
	// nil when the run had no tsdb layer.
	Series *tsdb.Dump
	// Alerts is the alert layer's rules + firing set + event log (schema
	// dynamicmr.alerts/1); nil when the run had no tsdb layer.
	Alerts *tsdb.AlertsDump
}

// Source is the input to New: a label, the run's tracer, and optional
// pre-computed layers.
type Source struct {
	Label string
	// Tracer supplies spans, decisions, samples, counters and gauges.
	// It must be enabled.
	Tracer *trace.Tracer
	// Diagnosis overrides the diag report; nil runs diag.FromTracer.
	Diagnosis *diag.Report
	// Queries attaches the per-query dump; nil omits it.
	Queries *qstats.Dump
	// Series / Alerts attach the time-series and alert layers; nil
	// omits them.
	Series *tsdb.Dump
	Alerts *tsdb.AlertsDump
	// Snapshots attaches the obs sampler's series (Sampler.Cut); nil
	// omits it.
	Snapshots []obs.Snapshot
	// VirtualTimeS is the engine clock at archive time.
	VirtualTimeS float64
	// CreatedUnixMS stamps the manifest (0 = unstamped, deterministic
	// bytes).
	CreatedUnixMS int64
	Config        RunConfig
}

// New snapshots a run into an Archive. The diagnosis is
// invariant-checked: every job's breakdown must sum to its makespan,
// the precondition for diff-by-construction in Compare. When
// src.Diagnosis is nil, New computes it with diag.Analyze from the
// copies of the tracer's spans, decisions and counters the archive
// keeps (as diag.FromTracer would from copies of its own), so the
// report's Counters is the archive's Counters map.
func New(src Source) (*Archive, error) {
	if !src.Tracer.Enabled() {
		return nil, fmt.Errorf("runarchive: archiving requires an enabled tracer")
	}
	a := &Archive{
		Manifest: Manifest{
			Schema:        SchemaVersion,
			Label:         src.Label,
			CreatedUnixMS: src.CreatedUnixMS,
			VirtualTimeS:  src.VirtualTimeS,
			Config:        src.Config,
			DroppedSpans:  src.Tracer.Dropped(),
		},
		Spans:     src.Tracer.Spans(),
		Decisions: src.Tracer.PolicyDecisions(),
		Samples:   src.Tracer.MetricSamples(),
		Snapshots: src.Snapshots,
		Counters:  src.Tracer.Counters(),
		Gauges:    src.Tracer.Gauges(),
		Diagnosis: src.Diagnosis,
		Queries:   src.Queries,
		Series:    src.Series,
		Alerts:    src.Alerts,
	}
	if a.Diagnosis == nil {
		a.Diagnosis = diag.Analyze(a.Spans, a.Decisions, a.Counters, a.Manifest.DroppedSpans, diag.Config{})
	}
	if err := a.Diagnosis.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("runarchive: diagnosis invariants: %w", err)
	}
	a.Manifest.Counts = a.counts()
	return a, nil
}

// counts derives the manifest counts from the payload.
func (a *Archive) counts() Counts {
	c := Counts{Spans: len(a.Spans), Decisions: len(a.Decisions), Samples: len(a.Samples),
		Snapshots: len(a.Snapshots)}
	if a.Diagnosis != nil {
		c.Jobs = len(a.Diagnosis.Jobs)
	}
	if a.Queries != nil {
		c.Queries = len(a.Queries.Queries)
	}
	if a.Series != nil {
		c.Series = len(a.Series.Series)
	}
	if a.Alerts != nil {
		c.AlertEvents = len(a.Alerts.Events)
	}
	return c
}

// record is one NDJSON line.
type record struct {
	T string          `json:"t"`
	D json.RawMessage `json:"d"`
}

// jsonSafe reports whether s needs no JSON escaping (the fast path for
// the archive's fixed vocabulary of span names, categories and
// verdicts).
func jsonSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}

func appendString(b []byte, s string) []byte {
	if jsonSafe(s) {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	j, _ := json.Marshal(s)
	return append(b, j...)
}

// appendFloat encodes v the way encoding/json does: decimal notation
// in the normal range, exponent form outside it — so hand-encoded and
// reflected records agree on float formatting.
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// encoding/json trims e-09 to e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// The high-volume record kinds (spans, decisions, samples — tens of
// thousands per run) are encoded by hand into a reused buffer:
// reflection-based json.Marshal is ~40% of Write's CPU on a
// figure-6-sized stream (see BenchmarkArchiveWrite). The byte output
// matches what json.Marshal produced for the equivalent wire structs,
// omitempty semantics included.
func appendSpanLine(b []byte, s trace.Span) []byte {
	b = append(b, `{"t":"span","d":{"name":`...)
	b = appendString(b, s.Name)
	if s.Cat != "" {
		b = append(b, `,"cat":`...)
		b = appendString(b, s.Cat)
	}
	b = append(b, `,"start_s":`...)
	b = appendFloat(b, s.Start)
	b = append(b, `,"end_s":`...)
	b = appendFloat(b, s.End)
	b = append(b, `,"job":`...)
	b = strconv.AppendInt(b, int64(s.Job), 10)
	b = append(b, `,"task":`...)
	b = strconv.AppendInt(b, int64(s.Task), 10)
	b = append(b, `,"attempt":`...)
	b = strconv.AppendInt(b, int64(s.Attempt), 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(s.Node), 10)
	if s.Speculative {
		b = append(b, `,"speculative":true`...)
	}
	if s.Outcome != "" {
		b = append(b, `,"outcome":`...)
		b = appendString(b, s.Outcome)
	}
	return append(b, "}}\n"...)
}

func appendDecisionLine(b []byte, d trace.PolicyDecision) []byte {
	b = append(b, `{"t":"decision","d":{"time_s":`...)
	b = appendFloat(b, d.Time)
	b = append(b, `,"job":`...)
	b = strconv.AppendInt(b, int64(d.JobID), 10)
	b = append(b, `,"policy":`...)
	b = appendString(b, d.Policy)
	b = append(b, `,"verdict":`...)
	b = appendString(b, d.Verdict)
	b = append(b, `,"added":`...)
	b = strconv.AppendInt(b, int64(d.Added), 10)
	b = append(b, `,"grab_limit":`...)
	b = strconv.AppendInt(b, int64(d.GrabLimit), 10)
	b = append(b, `,"scheduled_maps":`...)
	b = strconv.AppendInt(b, int64(d.ScheduledMaps), 10)
	b = append(b, `,"completed_maps":`...)
	b = strconv.AppendInt(b, int64(d.CompletedMaps), 10)
	b = append(b, `,"pending_maps":`...)
	b = strconv.AppendInt(b, int64(d.PendingMaps), 10)
	b = append(b, `,"running_maps":`...)
	b = strconv.AppendInt(b, int64(d.RunningMaps), 10)
	b = append(b, `,"map_input_records":`...)
	b = strconv.AppendInt(b, d.MapInputRecords, 10)
	b = append(b, `,"map_output_records":`...)
	b = strconv.AppendInt(b, d.MapOutputRecords, 10)
	b = append(b, `,"total_slots":`...)
	b = strconv.AppendInt(b, int64(d.TotalSlots), 10)
	b = append(b, `,"free_slots":`...)
	b = strconv.AppendInt(b, int64(d.FreeSlots), 10)
	b = append(b, `,"queued_tasks":`...)
	b = strconv.AppendInt(b, int64(d.QueuedTasks), 10)
	b = append(b, `,"work_threshold_pct":`...)
	b = appendFloat(b, d.WorkThresholdPct)
	b = append(b, `,"progress_pct":`...)
	b = appendFloat(b, d.ProgressPct)
	return append(b, "}}\n"...)
}

func appendSampleLine(b []byte, m trace.MetricSample) []byte {
	b = append(b, `{"t":"sample","d":{"time_s":`...)
	b = appendFloat(b, m.Time)
	b = append(b, `,"cpu_util_pct":`...)
	b = appendFloat(b, m.CPUUtilPct)
	b = append(b, `,"disk_read_kb_s":`...)
	b = appendFloat(b, m.DiskReadKBs)
	b = append(b, `,"slot_occupancy_pct":`...)
	b = appendFloat(b, m.SlotOccupancyPct)
	return append(b, "}}\n"...)
}

// writeChunkSize is the encoder → compressor hand-off granularity.
const writeChunkSize = 256 << 10

// chunkWriter is encodeStream's output buffer. fill hands buf to the
// compressor once it reaches writeChunkSize, so no chunk runs past
// writeChunkSize by more than one line or one streamed value.
type chunkWriter struct {
	buf  []byte
	out  chan<- writeChunk
	free <-chan []byte
}

// Write appends p, for payloads that stream (the qstats record).
func (c *chunkWriter) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	c.fill()
	return len(p), nil
}

// WriteString spares a streaming payload's separators a []byte copy.
func (c *chunkWriter) WriteString(s string) (int, error) {
	c.buf = append(c.buf, s...)
	c.fill()
	return len(s), nil
}

// fill hands buf to the compressor when it is full.
func (c *chunkWriter) fill() {
	if len(c.buf) >= writeChunkSize {
		c.flush()
	}
}

func (c *chunkWriter) flush() {
	if len(c.buf) > 0 {
		c.out <- writeChunk{b: c.buf}
		c.buf = (<-c.free)[:0]
	}
}

// record writes one {"t":kind,"d":...} line whose payload encode writes.
func (c *chunkWriter) record(kind string, encode func(io.Writer) error) error {
	c.buf = append(c.buf, `{"t":"`...)
	c.buf = append(c.buf, kind...)
	c.buf = append(c.buf, `","d":`...)
	if err := encode(c); err != nil {
		return err
	}
	c.buf = append(c.buf, "}\n"...)
	c.fill()
	return nil
}

// emit writes one record whose payload is marshaled whole.
func (c *chunkWriter) emit(kind string, payload any) error {
	return c.record(kind, func(w io.Writer) error {
		d, err := json.Marshal(payload)
		if err == nil {
			_, err = w.Write(d)
		}
		return err
	})
}

// encodeStream serializes every record into chunks sent over out, in
// stream order. It owns the encoding end of Write's pipeline; any
// marshal error is delivered as the final chunk, after the chunks
// already encoded.
func (a *Archive) encodeStream(out chan<- writeChunk, free <-chan []byte) {
	c := &chunkWriter{buf: (<-free)[:0], out: out, free: free}
	err := c.emit(recManifest, a.Manifest)
	if err == nil {
		for _, s := range a.Spans {
			c.buf = appendSpanLine(c.buf, s)
			c.fill()
		}
		for _, d := range a.Decisions {
			c.buf = appendDecisionLine(c.buf, d)
			c.fill()
		}
		for _, m := range a.Samples {
			c.buf = appendSampleLine(c.buf, m)
			c.fill()
		}
		for _, s := range a.Snapshots {
			if err = c.emit(recSnapshot, s); err != nil {
				break
			}
		}
	}
	if err == nil && len(a.Counters) > 0 {
		err = c.emit(recCounters, a.Counters)
	}
	if err == nil && len(a.Gauges) > 0 {
		gs := make(map[string]gaugeRecord, len(a.Gauges))
		for k, g := range a.Gauges {
			gs[k] = gaugeRecord{Last: g.Last, Min: g.Min, Max: g.Max, Sum: g.Sum, Count: g.Count}
		}
		err = c.emit(recGauges, gs)
	}
	if err == nil && a.Diagnosis != nil {
		err = c.emit(recDiagnosis, a.Diagnosis)
	}
	if err == nil && a.Queries != nil {
		// The dump is the largest record: thousands of queries, each
		// with its diagnosis. It streams a query at a time, so the
		// chunks stay bounded.
		err = c.record(recQueries, a.Queries.WriteCompactJSON)
	}
	if err == nil && a.Series != nil {
		err = c.emit(recSeries, a.Series)
	}
	if err == nil && a.Alerts != nil {
		err = c.emit(recAlerts, a.Alerts)
	}
	if err != nil {
		out <- writeChunk{err: err}
		close(out)
		return
	}
	c.flush()
	close(out)
}

type writeChunk struct {
	b   []byte
	err error
}

// Write emits the archive as gzip NDJSON. The manifest counts are
// recomputed from the payload, so Load → Write round-trips
// byte-identically regardless of what the Counts field held.
//
// Serialization and compression run as a two-stage pipeline (encoder
// goroutine → gzip on the caller), overlapping the two roughly
// equal-cost halves of the dump; the chunk channel is FIFO and
// single-producer/single-consumer, so the byte stream — and with it
// the byte-identity contract — is exactly the sequential one. The
// qstats record, the largest, streams a query at a time, so Write holds
// a few chunks however many queries the dump has; when a query fails
// to encode (a NaN, say), the stream before it may already be in w.
func (a *Archive) Write(w io.Writer) error {
	// BestSpeed keeps archiving invisible next to the simulation (the
	// stream is ~25% larger than default compression but ~4× faster to
	// produce); determinism is unaffected — the level is fixed and the
	// header carries no ModTime.
	zw, err := gzip.NewWriterLevel(w, gzip.BestSpeed)
	if err != nil {
		return err
	}
	a.Manifest.Schema = SchemaVersion
	a.Manifest.Counts = a.counts()
	out := make(chan writeChunk, 2)
	free := make(chan []byte, 3)
	for i := 0; i < 3; i++ {
		free <- make([]byte, 0, writeChunkSize+4096)
	}
	go a.encodeStream(out, free)
	for c := range out {
		if c.err != nil {
			return c.err // encoder closed out after an error
		}
		if err == nil {
			_, err = zw.Write(c.b)
		}
		free <- c.b // keep draining on error so the encoder finishes
	}
	if err != nil {
		return err
	}
	return zw.Close()
}

// WriteFile writes the archive to path. When the write fails, it
// removes the file: Write may already have written part of the stream
// (the qstats record streams, and a NaN in it fails mid-record), and
// Load would reject what is left as corrupt.
func (a *Archive) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = a.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path) // best effort: the write error is the one to report
	}
	return err
}

// Load parses a gzip NDJSON archive and validates it (schema match,
// counts consistent with the stream).
func Load(r io.Reader) (*Archive, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("runarchive: not a gzip stream: %w", err)
	}
	defer zr.Close()
	dec := json.NewDecoder(bufio.NewReader(zr))
	a := &Archive{}
	first := true
	for {
		var rec record
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("runarchive: corrupt record: %w", err)
		}
		if first {
			if rec.T != recManifest {
				return nil, fmt.Errorf("runarchive: first record is %q, want %q", rec.T, recManifest)
			}
			if err := json.Unmarshal(rec.D, &a.Manifest); err != nil {
				return nil, fmt.Errorf("runarchive: manifest: %w", err)
			}
			if a.Manifest.Schema != SchemaVersion {
				return nil, fmt.Errorf("runarchive: schema %q, want %q", a.Manifest.Schema, SchemaVersion)
			}
			first = false
			continue
		}
		switch rec.T {
		case recManifest:
			return nil, fmt.Errorf("runarchive: duplicate manifest record")
		case recSpan:
			var sr spanRecord
			if err := json.Unmarshal(rec.D, &sr); err != nil {
				return nil, fmt.Errorf("runarchive: span record: %w", err)
			}
			a.Spans = append(a.Spans, sr.span())
		case recDecision:
			var dr decisionRecord
			if err := json.Unmarshal(rec.D, &dr); err != nil {
				return nil, fmt.Errorf("runarchive: decision record: %w", err)
			}
			a.Decisions = append(a.Decisions, dr.decision())
		case recSample:
			var mr sampleRecord
			if err := json.Unmarshal(rec.D, &mr); err != nil {
				return nil, fmt.Errorf("runarchive: sample record: %w", err)
			}
			a.Samples = append(a.Samples, trace.MetricSample{Time: mr.Time,
				CPUUtilPct: mr.CPUUtilPct, DiskReadKBs: mr.DiskReadKBs,
				SlotOccupancyPct: mr.SlotOccupancyPct})
		case recSnapshot:
			var snap obs.Snapshot
			if err := json.Unmarshal(rec.D, &snap); err != nil {
				return nil, fmt.Errorf("runarchive: snapshot record: %w", err)
			}
			a.Snapshots = append(a.Snapshots, snap)
		case recCounters:
			if err := json.Unmarshal(rec.D, &a.Counters); err != nil {
				return nil, fmt.Errorf("runarchive: counters record: %w", err)
			}
		case recGauges:
			var gs map[string]gaugeRecord
			if err := json.Unmarshal(rec.D, &gs); err != nil {
				return nil, fmt.Errorf("runarchive: gauges record: %w", err)
			}
			a.Gauges = make(map[string]trace.GaugeSnapshot, len(gs))
			for k, g := range gs {
				a.Gauges[k] = trace.GaugeSnapshot{Last: g.Last, Min: g.Min, Max: g.Max, Sum: g.Sum, Count: g.Count}
			}
		case recDiagnosis:
			a.Diagnosis = &diag.Report{}
			if err := json.Unmarshal(rec.D, a.Diagnosis); err != nil {
				return nil, fmt.Errorf("runarchive: diag record: %w", err)
			}
		case recQueries:
			a.Queries = &qstats.Dump{}
			if err := json.Unmarshal(rec.D, a.Queries); err != nil {
				return nil, fmt.Errorf("runarchive: qstats record: %w", err)
			}
		case recSeries:
			a.Series = &tsdb.Dump{}
			if err := json.Unmarshal(rec.D, a.Series); err != nil {
				return nil, fmt.Errorf("runarchive: tsdb record: %w", err)
			}
		case recAlerts:
			a.Alerts = &tsdb.AlertsDump{}
			if err := json.Unmarshal(rec.D, a.Alerts); err != nil {
				return nil, fmt.Errorf("runarchive: alerts record: %w", err)
			}
		default:
			// Unknown record kinds are skipped: forward compatibility
			// for minor additions within schema /1.
		}
	}
	if first {
		return nil, fmt.Errorf("runarchive: empty archive (no manifest)")
	}
	// Write omits empty counter/gauge records; normalize to the non-nil
	// maps New produces so load(write(a)) == a.
	if a.Counters == nil {
		a.Counters = map[string]int64{}
	}
	if a.Gauges == nil {
		a.Gauges = map[string]trace.GaugeSnapshot{}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// LoadFile reads an archive from path.
func LoadFile(path string) (*Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// Validate checks the archive's internal consistency: schema version,
// manifest counts against the payload, and the diagnosis invariants
// (every job's breakdown sums to its makespan) when a diagnosis is
// present.
func (a *Archive) Validate() error {
	if a.Manifest.Schema != SchemaVersion {
		return fmt.Errorf("runarchive: schema %q, want %q", a.Manifest.Schema, SchemaVersion)
	}
	if got, want := a.counts(), a.Manifest.Counts; got != want {
		return fmt.Errorf("runarchive: manifest counts %+v do not match payload %+v", want, got)
	}
	if a.Diagnosis != nil {
		if a.Diagnosis.Schema != diag.SchemaVersion {
			return fmt.Errorf("runarchive: diag schema %q, want %q", a.Diagnosis.Schema, diag.SchemaVersion)
		}
		if err := a.Diagnosis.CheckInvariants(); err != nil {
			return fmt.Errorf("runarchive: diagnosis invariants: %w", err)
		}
	}
	if a.Queries != nil && a.Queries.Schema != qstats.SchemaVersion {
		return fmt.Errorf("runarchive: qstats schema %q, want %q", a.Queries.Schema, qstats.SchemaVersion)
	}
	if a.Series != nil && a.Series.Schema != tsdb.SchemaVersion {
		return fmt.Errorf("runarchive: tsdb schema %q, want %q", a.Series.Schema, tsdb.SchemaVersion)
	}
	if a.Alerts != nil && a.Alerts.Schema != tsdb.AlertsSchemaVersion {
		return fmt.Errorf("runarchive: alerts schema %q, want %q", a.Alerts.Schema, tsdb.AlertsSchemaVersion)
	}
	return nil
}

// RunSide adapts the archive for diag.Compare: the diagnosis report,
// the decision log, and the job → query-ID alignment map recovered
// from the qstats dump (finished queries carry both their stable query
// ID and the job ID it ran as).
func (a *Archive) RunSide() diag.RunSide {
	side := diag.RunSide{
		Label:     a.Manifest.Label,
		Report:    a.Diagnosis,
		Decisions: a.Decisions,
	}
	if a.Queries != nil {
		side.QueryByJob = make(map[int]string)
		for _, q := range a.Queries.Queries {
			side.QueryByJob[q.JobID] = q.ID
		}
		for _, q := range a.Queries.InFlight {
			side.QueryByJob[q.JobID] = q.ID
		}
	}
	if a.Alerts != nil {
		for _, e := range a.Alerts.Events {
			side.Alerts = append(side.Alerts, fmt.Sprintf("%s(%s)", e.Rule, e.State))
		}
	}
	return side
}

// Compare diffs two archives (B relative to A) through diag.Compare:
// jobs aligned by query ID (falling back to job ID), per-component
// breakdown deltas summing to the makespan delta, first divergent
// provider decision, critical-path and anomaly diffs.
func Compare(a, b *Archive) (*diag.DiffReport, error) {
	if a.Diagnosis == nil || b.Diagnosis == nil {
		return nil, fmt.Errorf("runarchive: both archives need a diagnosis to compare")
	}
	return diag.Compare(a.RunSide(), b.RunSide())
}

// GitRev returns the VCS revision baked into the running binary by the
// Go toolchain (12-hex prefix, "+dirty" suffix when the working tree
// was modified), or "" for builds without VCS stamping (go test, GOPATH
// builds).
func GitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev + dirty
}
