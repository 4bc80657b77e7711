package diag

import (
	"math"
	"sort"

	"dynamicmr/internal/trace"
)

// criticalPath extracts the chain of intervals that determined the
// job's makespan by chaining backward from the finish time: at each
// cursor position it picks the attempt that finished last at or
// before the cursor (the one completion gated on), walks through its
// phase chain and queue wait, and classifies any remaining gap as
// provider wait (the Input Provider had not granted work) or slot
// wait (scheduling latency). The returned nodes tile
// [submit, finish] exactly, which is what makes the breakdown sum to
// the makespan by construction.
func criticalPath(j *JobTrace) []PathNode {
	submit, finish := j.span.Start, j.span.End
	tol := pathTol(finish)
	if finish-submit <= tol {
		return nil
	}
	used := make([]bool, len(j.attempts))
	var rev []PathNode // built finish→submit, reversed at the end
	cursor := finish
	var down *attempt // the attempt just after the current cursor
	// Each iteration either consumes an attempt or terminates, so the
	// guard only trips on malformed input (e.g. a truncated ring).
	guard := 4*len(j.attempts) + 64
	for cursor > submit+tol {
		guard--
		if guard < 0 {
			rev = append(rev, gapNode(submit, cursor, KindUntraced, nil,
				"path extraction gave up (inconsistent trace)"))
			cursor = submit
			break
		}
		best := -1
		for i := range j.attempts {
			if used[i] {
				continue
			}
			a := j.attempts[i].span
			if a.End > cursor+tol {
				continue
			}
			if best < 0 || a.End > j.attempts[best].span.End ||
				(a.End == j.attempts[best].span.End && a.Start > j.attempts[best].span.Start) {
				best = i
			}
		}
		if best < 0 {
			// No attempt finished in (submit, cursor]: the whole head
			// of the job is wait time.
			kind, det := classifyGap(j, submit, cursor)
			rev = append(rev, gapNode(submit, cursor, kind, down, det))
			cursor = submit
			break
		}
		a := &j.attempts[best]
		used[best] = true
		end := math.Min(a.span.End, cursor)
		if cursor-end > tol {
			kind, det := classifyGap(j, end, cursor)
			rev = append(rev, gapNode(end, cursor, kind, down, det))
		}
		nodes := attemptNodes(a, a.span.Start, end)
		for i := len(nodes) - 1; i >= 0; i-- {
			rev = append(rev, nodes[i])
		}
		cursor = math.Min(a.span.Start, end)
		down = a
		if qw := a.queueWait; qw != nil && qw.Start < cursor-tol {
			start := math.Max(qw.Start, submit)
			rev = append(rev, PathNode{Kind: KindSlotWait, Start: start, End: cursor,
				Task: a.span.Task, Attempt: a.span.Attempt, Node: a.span.Node,
				Detail: "queued, waiting for a free slot"})
			cursor = start
		}
	}
	if cursor > submit+tol {
		kind, det := classifyGap(j, submit, cursor)
		rev = append(rev, gapNode(submit, cursor, kind, down, det))
	} else if len(rev) > 0 && rev[len(rev)-1].Start > submit {
		// Snap a sub-tolerance residue so the path begins exactly at
		// the submit time.
		rev[len(rev)-1].Start = submit
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

func pathTol(at float64) float64 { return 1e-9 * math.Max(1, math.Abs(at)) }

// classifyGap decides whether an idle interval on the path was the
// Input Provider's doing. A GROW/INIT decision coinciding with the
// gap's end means the work that unblocked the job was granted exactly
// then; WAIT/SKIP verdicts inside the gap mean the provider was
// explicitly idling the job. Everything else is scheduling latency
// (heartbeat wait, slot contention).
func classifyGap(j *JobTrace, start, end float64) (string, string) {
	tol := pathTol(end)
	i := sort.SearchFloat64s(j.growTimes, end-tol)
	if i < len(j.growTimes) && j.growTimes[i] <= end+tol {
		return KindProviderWait, "ends at an Input Provider INIT/GROW decision"
	}
	k := sort.SearchFloat64s(j.waitTimes, start+tol)
	if k < len(j.waitTimes) && j.waitTimes[k] < end-tol {
		return KindProviderWait, "Input Provider chose WAIT/SKIP during this interval"
	}
	return KindSlotWait, "no attempt running; scheduling gap"
}

func gapNode(start, end float64, kind string, down *attempt, detail string) PathNode {
	n := PathNode{Kind: kind, Start: start, End: end, Task: -1, Attempt: 0, Node: -1, Detail: detail}
	if down != nil {
		n.Task, n.Attempt, n.Node = down.span.Task, down.span.Attempt, down.span.Node
	}
	return n
}

// attemptNodes converts one attempt's phase chain into path nodes
// tiling [start, end]; holes (phases evicted from the trace ring)
// become untraced filler so tiling still holds.
func attemptNodes(a *attempt, start, end float64) []PathNode {
	tol := pathTol(end)
	if end-start <= 0 {
		return nil
	}
	hasNet := false
	if a.kind == trace.CatMap {
		for _, p := range a.phases {
			if p.Name == trace.SpanNetRead {
				hasNet = true
				break
			}
		}
	}
	var out []PathNode
	t := start
	emit := func(kind string, upto float64, detail string) {
		upto = math.Min(upto, end)
		if upto <= t {
			return
		}
		out = append(out, PathNode{Kind: kind, Start: t, End: upto,
			Task: a.span.Task, Attempt: a.span.Attempt, Node: a.span.Node, Detail: detail})
		t = upto
	}
	for _, p := range a.phases {
		if p.Start > t+tol {
			emit(KindUntraced, p.Start, "untraced hole in attempt")
		}
		emit(phaseKind(p.Name, hasNet), p.End, "")
	}
	if t < end-tol {
		emit(KindUntraced, end, "untraced tail of attempt")
	} else if t < end && len(out) > 0 {
		out[len(out)-1].End = end
	} else if len(out) == 0 {
		emit(KindUntraced, end, "attempt phases missing from trace")
	}
	return out
}

// phaseKind maps a phase span name to a path node kind. Phase names
// are unique across map and reduce chains except startup, which maps
// to the same kind either way; a map's disk read is classified
// local/remote by whether the attempt also transferred its split over
// the network.
func phaseKind(name string, hasNet bool) string {
	switch name {
	case trace.SpanStartup:
		return KindStartup
	case trace.SpanDiskRead:
		if hasNet {
			return KindDiskReadRemote
		}
		return KindDiskReadLocal
	case trace.SpanNetRead:
		return KindNetRead
	case trace.SpanMapCPU:
		return KindMapCPU
	case trace.SpanShuffle:
		return KindShuffle
	case trace.SpanSort:
		return KindSort
	case trace.SpanReduceCPU:
		return KindReduceCPU
	case trace.SpanOutputWrite:
		return KindOutputWrite
	}
	return KindUntraced
}
