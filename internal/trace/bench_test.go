package trace

import "testing"

// jobTraffic replays the tracer calls of one memo-served sampling job
// of dynbench's observed workload, as counted at seed 1: 36 map
// attempts (16 of them reading over the network), one reduce, the
// job's own spans and 11 heartbeats. That is 217 spans, 229 counter
// increments and 72 histogram observations.
func jobTraffic(tr *Tracer, job int) {
	const maps, remote, heartbeats = 36, 16, 11
	t := float64(job)
	tr.Instant(EventJobSubmitted, CatJob, t, job, -1, -1)
	tr.Inc(CounterJobsSubmitted, 1)
	for m := 0; m < maps; m++ {
		node := m % 10
		span := func(name string, start, end float64) {
			tr.Record(Span{Name: name, Cat: CatMap, Start: start, End: end, Job: job, Task: m, Attempt: 1, Node: node})
		}
		span(SpanQueueWait, t, t+0.1)
		tr.Observe(HistMapQueueWait, 0.1)
		tr.Inc(CounterMapAttempts, 1)
		tr.Inc(CounterMemoHits, 1)
		span(SpanStartup, t+0.1, t+0.2)
		tr.Inc(CounterScanBlocksRead, 4)
		tr.Inc(CounterScanBlocksSkipped, 0)
		span(SpanDiskRead, t+0.2, t+0.3)
		if m < remote {
			span(SpanNetRead, t+0.3, t+0.4)
		}
		span(SpanMapCPU, t+0.4, t+0.5)
		tr.Inc(CounterScanAsync, 1)
		tr.Record(Span{Name: SpanMapAttempt, Cat: CatMap, Start: t + 0.1, End: t + 0.5, Job: job, Task: m,
			Attempt: 1, Node: node, Outcome: OutcomeOK})
		tr.Observe(HistMapDuration, 0.4)
		if m < remote {
			tr.Inc(CounterMapNonLocal, 1)
		} else {
			tr.Inc(CounterMapLocal, 1)
		}
	}
	for _, name := range []string{SpanStartup, SpanShuffle, SpanSort, SpanReduceCPU, SpanOutputWrite, SpanReduceAttempt} {
		tr.Record(Span{Name: name, Cat: CatReduce, Start: t + 0.5, End: t + 0.6, Job: job, Task: 0, Attempt: 1})
	}
	for h := 0; h < heartbeats; h++ {
		tr.Instant(EventHeartbeat, CatNode, t+float64(h)*0.05, -1, -1, h%10)
		tr.Inc(CounterHeartbeats, 1)
	}
	for _, name := range []string{SpanJob, SpanMapPhase, SpanReducePhase} {
		tr.Record(Span{Name: name, Cat: CatJob, Start: t, End: t + 0.6, Job: job, Task: -1, Node: -1})
	}
	tr.Inc(CounterJobsFinished, 1)
}

// BenchmarkTracerJobTraffic is the tracer's cost per job on the engine
// goroutine, with the span ring full, as in a long run: it must
// allocate nothing.
func BenchmarkTracerJobTraffic(b *testing.B) {
	tr := New(Config{Enabled: true})
	for job := 0; tr.Dropped() == 0; job++ {
		jobTraffic(tr, job)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jobTraffic(tr, i)
	}
}
