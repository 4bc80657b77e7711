package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// Chrome trace-event lane layout: each job is a Chrome "process"
// (pid = JobID+1; pid 0 is the cluster), map tasks are threads by task
// index, reduce tasks and the job/policy lanes use high tid bands so
// they never collide with map task indices.
const (
	chromePidCluster   = 0
	chromeTidReduce    = 1_000_000
	chromeTidJobLane   = 2_000_000
	chromeTidPolicy    = 2_000_001
	chromeTidCounters  = 0
	chromeMicrosPerSec = 1e6
)

// WriteChromeTrace exports spans, the policy audit log and the
// utilization timeline as Chrome trace-event JSON, loadable in Perfetto
// or chrome://tracing; dropped is the span ring's eviction count.
// Virtual seconds map to trace microseconds, so one virtual second
// reads as 1 ms in the UI's default display unit. The output is a pure
// function of its inputs, so a tracer and the run archive cut from it
// export the same bytes. Empty inputs write a valid empty trace.
func WriteChromeTrace(w io.Writer, spans []Span, decisions []PolicyDecision, samples []MetricSample, dropped int64) error {
	var events []map[string]any
	jobs := map[int]bool{}

	for _, s := range spans {
		pid, tid := chromeLane(s)
		if s.Job >= 0 {
			jobs[s.Job] = true
		}
		ev := map[string]any{
			"name": s.Name,
			"cat":  s.Cat,
			"ts":   s.Start * chromeMicrosPerSec,
			"pid":  pid,
			"tid":  tid,
		}
		if s.Instant() {
			ev["ph"] = "i"
			ev["s"] = "t"
		} else {
			ev["ph"] = "X"
			ev["dur"] = s.Duration() * chromeMicrosPerSec
		}
		args := map[string]any{}
		if s.Job >= 0 {
			args["job"] = s.Job
		}
		if s.Task >= 0 {
			args["task"] = s.Task
		}
		if s.Node >= 0 {
			args["node"] = s.Node
		}
		if s.Attempt > 0 {
			args["attempt"] = s.Attempt
		}
		if s.Speculative {
			args["speculative"] = true
		}
		if s.Outcome != "" {
			args["outcome"] = s.Outcome
		}
		if len(args) > 0 {
			ev["args"] = args
		}
		events = append(events, ev)
	}

	for _, d := range decisions {
		jobs[d.JobID] = true
		events = append(events, map[string]any{
			"name": d.Verdict,
			"cat":  CatPolicy,
			"ph":   "i",
			"s":    "t",
			"ts":   d.Time * chromeMicrosPerSec,
			"pid":  d.JobID + 1,
			"tid":  chromeTidPolicy,
			"args": map[string]any{
				"policy":             d.Policy,
				"added":              d.Added,
				"grab_limit":         d.GrabLimit,
				"scheduled_maps":     d.ScheduledMaps,
				"completed_maps":     d.CompletedMaps,
				"pending_maps":       d.PendingMaps,
				"running_maps":       d.RunningMaps,
				"map_input_records":  d.MapInputRecords,
				"map_output_records": d.MapOutputRecords,
				"total_slots":        d.TotalSlots,
				"free_slots":         d.FreeSlots,
				"queued_tasks":       d.QueuedTasks,
				"work_threshold_pct": d.WorkThresholdPct,
				"progress_pct":       d.ProgressPct,
			},
		})
	}

	for _, m := range samples {
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"cpu util %", m.CPUUtilPct},
			{"disk read KB/s", m.DiskReadKBs},
			{"slot occupancy %", m.SlotOccupancyPct},
		} {
			events = append(events, map[string]any{
				"name": c.name,
				"ph":   "C",
				"ts":   m.Time * chromeMicrosPerSec,
				"pid":  chromePidCluster,
				"tid":  chromeTidCounters,
				"args": map[string]any{"value": c.v},
			})
		}
	}

	meta := func(pid int, name string) map[string]any {
		return map[string]any{
			"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "ts": 0,
			"args": map[string]any{"name": name},
		}
	}
	events = append(events, meta(chromePidCluster, "cluster"))
	ids := make([]int, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		events = append(events, meta(id+1, "job "+strconv.Itoa(id)))
	}

	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData": map[string]any{
			"clock":         "virtual-seconds-as-microseconds",
			"dropped_spans": dropped,
		},
	}
	return json.NewEncoder(w).Encode(doc)
}

func chromeLane(s Span) (pid, tid int) {
	switch s.Cat {
	case CatNode:
		return chromePidCluster, s.Node
	case CatMap:
		return s.Job + 1, s.Task
	case CatReduce:
		return s.Job + 1, chromeTidReduce + s.Task
	case CatPolicy:
		return s.Job + 1, chromeTidPolicy
	case CatJob:
		return s.Job + 1, chromeTidJobLane
	default:
		return chromePidCluster, chromeTidCounters
	}
}
