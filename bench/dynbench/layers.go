package dynbench

import (
	"sync"
	"sync/atomic"
	"time"

	"dynamicmr/internal/data"
	"dynamicmr/internal/mapreduce"
)

// Span is one interval the traced round records from outside the
// program, at the boundary of a call into a layer. Times are
// nanoseconds since the round's loop started. Spans of one job share
// Query, the bench's own query id; a scan cannot see which job caused
// it, so its Query is -1 and Detail names the partition instead.
type Span struct {
	Name    string `json:"name"`
	Query   int64  `json:"query"`
	Parent  string `json:"parent,omitempty"`
	Detail  string `json:"detail,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Span names.
const (
	spanJob        = "job"
	spanHiveSubmit = "hive.submit"
	spanScan       = "scan"
	spanFlush      = "flush"
)

// accounting is a traced round's per-layer ledger. The scheduler and
// hive fields are written only by the simulator goroutine; scans run on
// executor workers, so their fields are atomic and spans take the lock.
type accounting struct {
	origin time.Time

	schedCalls, schedTasks, schedEmpty int64
	schedTime                          time.Duration

	hiveCalls int64
	hiveTime  time.Duration

	scanCalls, scanRecords, scanNanos atomic.Int64

	mu    sync.Mutex
	spans []Span
}

func (a *accounting) since(t time.Time) int64 { return t.Sub(a.origin).Nanoseconds() }

func (a *accounting) span(s Span) {
	a.mu.Lock()
	a.spans = append(a.spans, s)
	a.mu.Unlock()
}

func (a *accounting) sched(start time.Time, tasks int) {
	a.schedTime += time.Since(start)
	a.schedCalls++
	a.schedTasks += int64(tasks)
	if tasks == 0 {
		a.schedEmpty++
	}
}

func (a *accounting) scan(name string, start time.Time, records int) {
	end := time.Now()
	a.scanCalls.Add(1)
	a.scanRecords.Add(int64(records))
	a.scanNanos.Add(end.Sub(start).Nanoseconds())
	a.span(Span{Name: spanScan, Query: -1, Detail: name, StartNS: a.since(start), EndNS: a.since(end)})
}

// timedScheduler wraps the program's TaskScheduler seam and times every
// scheduling call. Calls are aggregated, not kept as spans: there are
// about a hundred per job.
type timedScheduler struct {
	inner mapreduce.TaskScheduler
	acct  *accounting
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) AssignMaps(jt *mapreduce.JobTracker, tt *mapreduce.TaskTracker, max int) []*mapreduce.MapTask {
	start := time.Now()
	out := s.inner.AssignMaps(jt, tt, max)
	s.acct.sched(start, len(out))
	return out
}

func (s *timedScheduler) AssignReduces(jt *mapreduce.JobTracker, tt *mapreduce.TaskTracker, max int) []*mapreduce.ReduceTask {
	start := time.Now()
	out := s.inner.AssignReduces(jt, tt, max)
	s.acct.sched(start, len(out))
	return out
}

// The optional source capabilities the program discovers by type
// assertion on a DFS block's source. The decorator must offer exactly
// what the wrapped source offers, or the program would take other paths.
type (
	acceleratedSource interface {
		AcceleratedMatches(fingerprint string, limit int64) ([]data.Record, bool)
	}
	countSource interface {
		AcceleratedMatchCount(fingerprint string) (int64, bool)
	}
	pinner interface {
		Pin()
		Unpin()
	}
)

// timedSource wraps the program's data.Source seam — a dataset partition
// handed to dfs.Create, or the pruned view its PruneScan returns — and
// times the calls that produce records. It forwards every optional
// capability the program looks for; where the wrapped source lacks one,
// the forwarder answers exactly as a missing capability would (ok=false,
// or a no-op), so the program takes the same path either way. Metadata
// calls (counts, zone-map stats, pins) are O(1) and forwarded untimed.
type timedSource struct {
	data.Source
	name string
	acct *accounting
}

func (s *timedSource) Scan(yield func(data.Record) bool) {
	start := time.Now()
	n := 0
	s.Source.Scan(func(r data.Record) bool {
		n++
		return yield(r)
	})
	s.acct.scan(s.name, start, n)
}

func (s *timedSource) AcceleratedMatches(fingerprint string, limit int64) ([]data.Record, bool) {
	a, ok := s.Source.(acceleratedSource)
	if !ok {
		return nil, false
	}
	start := time.Now()
	recs, hit := a.AcceleratedMatches(fingerprint, limit)
	if hit {
		s.acct.scan(s.name, start, len(recs))
	}
	return recs, hit
}

func (s *timedSource) AcceleratedMatchCount(fingerprint string) (int64, bool) {
	if c, ok := s.Source.(countSource); ok {
		return c.AcceleratedMatchCount(fingerprint)
	}
	return 0, false
}

func (s *timedSource) BlockStats(fingerprint string) (data.BlockStats, bool) {
	if st, ok := s.Source.(data.StatSource); ok {
		return st.BlockStats(fingerprint)
	}
	return data.BlockStats{}, false
}

func (s *timedSource) PruneScan(fingerprint string, indexed bool) (data.Source, bool) {
	ps, ok := s.Source.(data.PrunableSource)
	if !ok {
		return nil, false
	}
	v, ok := ps.PruneScan(fingerprint, indexed)
	if !ok {
		return nil, false
	}
	return &timedSource{Source: v, name: s.name, acct: s.acct}, true
}

func (s *timedSource) Pin() {
	if p, ok := s.Source.(pinner); ok {
		p.Pin()
	}
}

func (s *timedSource) Unpin() {
	if p, ok := s.Source.(pinner); ok {
		p.Unpin()
	}
}
