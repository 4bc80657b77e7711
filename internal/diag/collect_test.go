package diag

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dynamicmr/internal/trace"
)

// The reference collector below is the map-based collectJobs that
// JobTrace replaced, kept verbatim; jobData is its name for the
// per-job record. TestJobTraceMatchesReferenceCollector requires both
// collectors to give identical reports on randomized streams.
type jobData = JobTrace

// referenceAnalyze is Analyze over the reference collector.
func referenceAnalyze(spans []trace.Span, decisions []trace.PolicyDecision,
	counters map[string]int64, dropped int64) *Report {
	jobs := collectJobs(spans, decisions)
	rep := &Report{Schema: SchemaVersion, Counters: counters, DroppedSpans: dropped}
	for _, j := range jobs {
		d := diagnoseJob(j)
		rep.Jobs = append(rep.Jobs, d)
	}
	sort.Slice(rep.Jobs, func(a, b int) bool { return rep.Jobs[a].JobID < rep.Jobs[b].JobID })
	rep.ClusterAnomalies = clusterAnomalies(counters)
	return rep
}

// collectJobs is the reference collector.
func collectJobs(spans []trace.Span, decisions []trace.PolicyDecision) []*jobData {
	byID := make(map[int]*jobData)
	get := func(id int) *jobData {
		j := byID[id]
		if j == nil {
			j = &jobData{id: id, span: trace.Span{Job: id, Start: math.NaN()}}
			byID[id] = j
		}
		return j
	}
	phases := make(map[int]map[attemptKey][]trace.Span)
	queueWaits := make(map[int]map[attemptKey]trace.Span)
	isPhase := func(name string) bool {
		switch name {
		case trace.SpanStartup, trace.SpanDiskRead, trace.SpanNetRead, trace.SpanMapCPU,
			trace.SpanShuffle, trace.SpanSort, trace.SpanReduceCPU, trace.SpanOutputWrite:
			return true
		}
		return false
	}
	for _, s := range spans {
		if s.Job < 0 {
			continue
		}
		switch {
		case s.Name == trace.SpanJob:
			j := get(s.Job)
			j.span = s
		case s.Name == trace.SpanMapAttempt || s.Name == trace.SpanReduceAttempt:
			j := get(s.Job)
			switch s.Outcome {
			case trace.OutcomeOK, trace.OutcomeFailed:
				j.attempts = append(j.attempts, attempt{span: s, kind: s.Cat})
				if s.Name == trace.SpanMapAttempt && s.Outcome == trace.OutcomeOK {
					j.okMaps = append(j.okMaps, s)
				}
			case trace.OutcomeKilled:
				j.killed = append(j.killed, s)
			}
		case s.Name == trace.SpanQueueWait:
			m := queueWaits[s.Job]
			if m == nil {
				m = make(map[attemptKey]trace.Span)
				queueWaits[s.Job] = m
			}
			m[attemptKey{s.Task, s.Attempt, s.Cat}] = s
		case isPhase(s.Name) && (s.Cat == trace.CatMap || s.Cat == trace.CatReduce):
			m := phases[s.Job]
			if m == nil {
				m = make(map[attemptKey][]trace.Span)
				phases[s.Job] = m
			}
			k := attemptKey{s.Task, s.Attempt, s.Cat}
			m[k] = append(m[k], s)
		}
	}
	for _, d := range decisions {
		j := get(d.JobID)
		switch d.Verdict {
		case trace.VerdictGrow, trace.VerdictInit:
			j.growTimes = append(j.growTimes, d.Time)
		case trace.VerdictWait, trace.VerdictSkip:
			j.waitTimes = append(j.waitTimes, d.Time)
		}
	}
	var out []*jobData
	for _, j := range byID {
		// Jobs without an enclosing job span (still running, or the
		// span was evicted) cannot be diagnosed; skip them.
		if math.IsNaN(j.span.Start) {
			continue
		}
		for i := range j.attempts {
			a := &j.attempts[i]
			k := attemptKey{a.span.Task, a.span.Attempt, a.span.Cat}
			ph := phases[j.id][k]
			sort.Slice(ph, func(x, y int) bool { return ph[x].Start < ph[y].Start })
			a.phases = ph
			if qw, ok := queueWaits[j.id][k]; ok {
				q := qw
				a.queueWait = &q
			}
		}
		sort.Float64s(j.growTimes)
		sort.Float64s(j.waitTimes)
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

// streamGen draws trace streams that stress the collector's ordering
// rules. Times sit on a coarse grid so that phase starts, attempt ends
// and decision times collide.
type streamGen struct {
	rng *rand.Rand
}

func (g streamGen) tick(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	steps := int((hi - lo) / 0.5)
	return lo + 0.5*float64(g.rng.Intn(steps+1))
}

var (
	mapPhases    = []string{trace.SpanStartup, trace.SpanDiskRead, trace.SpanNetRead, trace.SpanMapCPU}
	reducePhases = []string{trace.SpanStartup, trace.SpanShuffle, trace.SpanSort, trace.SpanReduceCPU, trace.SpanOutputWrite}
	outcomes     = []string{trace.OutcomeOK, trace.OutcomeOK, trace.OutcomeFailed, trace.OutcomeKilled, trace.OutcomeLate}
	verdicts     = []string{trace.VerdictInit, trace.VerdictGrow, trace.VerdictWait, trace.VerdictEOI, trace.VerdictSkip}
)

// job draws one job's spans and decisions, each in a recording order
// that is shuffled in places.
func (g streamGen) job(id int) ([]trace.Span, []trace.PolicyDecision) {
	rng := g.rng
	submit := g.tick(0, 50)
	finish := g.tick(submit+1, submit+100)
	var spans []trace.Span
	if rng.Intn(8) != 0 { // some jobs never record their job span
		out := []string{trace.OutcomeOK, trace.OutcomeFailed, ""}[rng.Intn(3)]
		spans = append(spans, trace.Span{Name: trace.SpanJob, Cat: trace.CatJob,
			Start: submit, End: finish, Job: id, Task: -1, Node: -1, Outcome: out})
	}
	for task, n := 0, 1+rng.Intn(6); task < n; task++ {
		kind, name, phases := trace.CatMap, trace.SpanMapAttempt, mapPhases
		if rng.Intn(4) == 0 {
			kind, name, phases = trace.CatReduce, trace.SpanReduceAttempt, reducePhases
		}
		for att, atts := 1, 1+rng.Intn(3); att <= atts; att++ {
			start := g.tick(submit, finish)
			end := g.tick(start, finish+5) // can overrun the job
			node := rng.Intn(8)
			var own []trace.Span
			own = append(own, trace.Span{Name: name, Cat: kind, Start: start, End: end,
				Job: id, Task: task, Attempt: att, Node: node,
				Speculative: att > 1, Outcome: outcomes[rng.Intn(len(outcomes))]})
			// Zero, one or two queue waits; with two, the last recorded
			// must win.
			for q := rng.Intn(3); q > 0; q-- {
				qs := g.tick(math.Max(submit-2, 0), start)
				own = append(own, trace.Span{Name: trace.SpanQueueWait, Cat: kind, Start: qs, End: start,
					Job: id, Task: task, Attempt: att, Node: node})
			}
			// Phases tile [start, end] with holes; some attempts have
			// none, some phases are zero-length so starts coincide.
			if rng.Intn(5) != 0 {
				t := start
				for _, ph := range phases {
					if rng.Intn(5) == 0 {
						continue
					}
					pe := g.tick(t, end)
					if rng.Intn(6) == 0 {
						pe = t
					}
					own = append(own, trace.Span{Name: ph, Cat: kind, Start: t, End: pe,
						Job: id, Task: task, Attempt: att, Node: node})
					t = pe
					if rng.Intn(6) == 0 {
						t = g.tick(t, end) // an untraced hole
					}
				}
			}
			// The attempt span usually follows its phases, as the
			// runtime records it at attempt end; phases themselves are
			// sometimes recorded out of Start order.
			first := own[0]
			rest := own[1:]
			if rng.Intn(3) == 0 {
				rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
			}
			at := rng.Intn(len(own))
			if rng.Intn(3) != 0 {
				at = len(rest)
			}
			spans = append(spans, rest[:at]...)
			spans = append(spans, first)
			spans = append(spans, rest[at:]...)
		}
	}
	// Some jobs carry sixteen short ok maps and one long one, whose
	// z-score of 4 clears the straggler rule's 3 unless the job's other
	// maps widen the spread.
	if rng.Intn(4) == 0 {
		for task := 100; task <= 116; task++ {
			end := submit + 0.5
			if task == 116 {
				end = finish
			}
			spans = append(spans, trace.Span{Name: trace.SpanMapAttempt, Cat: trace.CatMap, Start: submit, End: end,
				Job: id, Task: task, Attempt: 1, Node: task % 8, Outcome: trace.OutcomeOK})
		}
	}
	// A phase-named span outside the map/reduce categories and a
	// non-attempt span must both be ignored.
	spans = append(spans,
		trace.Span{Name: trace.SpanStartup, Cat: trace.CatJob, Start: submit, End: finish, Job: id, Task: 0, Attempt: 1},
		trace.Span{Name: trace.SpanMapPhase, Cat: trace.CatJob, Start: submit, End: finish, Job: id, Task: -1, Node: -1})
	var decs []trace.PolicyDecision
	for n := rng.Intn(8); n > 0; n-- {
		decs = append(decs, trace.PolicyDecision{Time: g.tick(submit, finish), JobID: id,
			Policy: "LA", Verdict: verdicts[rng.Intn(len(verdicts))]})
	}
	return spans, decs
}

// stream interleaves several jobs' spans and decisions, keeping each
// job's own order, and mixes in node-level spans (Job -1).
func (g streamGen) stream(jobs int) ([]trace.Span, []trace.PolicyDecision) {
	perJob := make([][]trace.Span, jobs)
	perDec := make([][]trace.PolicyDecision, jobs)
	for j := range perJob {
		perJob[j], perDec[j] = g.job(j)
	}
	var spans []trace.Span
	var decs []trace.PolicyDecision
	for {
		live := 0
		for j := range perJob {
			if len(perJob[j]) > 0 || len(perDec[j]) > 0 {
				live++
			}
		}
		if live == 0 {
			return spans, decs
		}
		j := g.rng.Intn(jobs)
		if len(perJob[j]) > 0 {
			n := 1 + g.rng.Intn(len(perJob[j]))
			spans = append(spans, perJob[j][:n]...)
			perJob[j] = perJob[j][n:]
		}
		if len(perDec[j]) > 0 {
			decs = append(decs, perDec[j][0])
			perDec[j] = perDec[j][1:]
		}
		if g.rng.Intn(4) == 0 {
			spans = append(spans, trace.Span{Name: trace.EventHeartbeat, Cat: trace.CatNode,
				Start: g.tick(0, 100), Job: -1, Task: -1, Node: g.rng.Intn(8)})
		}
	}
}

// TestJobTraceMatchesReferenceCollector feeds Analyze and the
// reference collector the same randomized streams and requires equal
// reports, then diagnoses every job again through one reused JobTrace
// (the qstats path) and requires the same per-job results.
func TestJobTraceMatchesReferenceCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := streamGen{rng: rng}
	var reused JobTrace
	jobsSeen, pathNodes, stragglers := 0, 0, 0
	for iter := 0; iter < 400; iter++ {
		spans, decs := g.stream(1 + rng.Intn(6))
		counters := map[string]int64{trace.CounterScanAsync.String(): 4, trace.CounterScanStalls.String(): int64(rng.Intn(5))}
		want := referenceAnalyze(spans, decs, counters, 3)
		got := Analyze(spans, decs, counters, 3)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %d: Analyze differs from the reference collector\ngot  %+v\nwant %+v", iter, got, want)
		}
		byJob := map[int]JobDiagnosis{}
		for _, d := range want.Jobs {
			byJob[d.JobID] = d
			pathNodes += len(d.CriticalPath)
			for _, a := range d.Anomalies {
				if a.Kind == AnomalyStraggler {
					stragglers++
				}
			}
		}
		jobsSeen += len(want.Jobs)
		ids := map[int]bool{}
		for _, s := range spans {
			if s.Job >= 0 {
				ids[s.Job] = true
			}
		}
		for id := range ids {
			reused.Reset(id)
			n := 0
			for _, s := range spans {
				if s.Job == id {
					reused.Add(s)
					n++
				}
			}
			for _, d := range decs {
				if d.JobID == id {
					reused.AddDecision(d)
				}
			}
			d, err := reused.Diagnose()
			ref, ok := byJob[id]
			switch {
			case !ok:
				wantErr := fmt.Sprintf("diag: no finished job %d in trace slice (%d spans)", id, n)
				if err == nil || err.Error() != wantErr {
					t.Fatalf("stream %d job %d: no job span, got %v, %v; want error %q", iter, id, d, err, wantErr)
				}
			case ref.CheckInvariants() != nil:
				if err == nil {
					t.Fatalf("stream %d job %d: reference breaks invariants (%v) but Diagnose passed", iter, id, ref.CheckInvariants())
				}
			case err != nil:
				t.Fatalf("stream %d job %d: %v", iter, id, err)
			case !reflect.DeepEqual(*d, ref):
				t.Fatalf("stream %d job %d: reused collector differs\ngot  %+v\nwant %+v", iter, id, *d, ref)
			}
		}
	}
	// The streams must actually reach the diagnoses they are meant to
	// compare.
	if jobsSeen < 1000 || pathNodes < 4*jobsSeen || stragglers < 50 {
		t.Fatalf("weak streams: %d jobs diagnosed, %d path nodes, %d stragglers", jobsSeen, pathNodes, stragglers)
	}
}
