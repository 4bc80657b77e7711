package obs

import (
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/trace"
)

func TestBuildGanttLaneAssignment(t *testing.T) {
	spans := []trace.Span{
		{Name: trace.SpanMapAttempt, Node: 0, Start: 0, End: 10, Job: 0, Task: 0},
		{Name: trace.SpanMapAttempt, Node: 0, Start: 2, End: 6, Job: 0, Task: 1},
		{Name: trace.SpanMapAttempt, Node: 0, Start: 6, End: 12, Job: 0, Task: 2}, // reuses lane 1
		{Name: trace.SpanMapAttempt, Node: 1, Start: 0, End: 4, Job: 0, Task: 3},
		{Name: trace.SpanReduceAttempt, Node: 0, Start: 12, End: 20, Job: 0, Task: 0},
		{Name: trace.SpanQueueWait, Node: 0, Start: 0, End: 1},   // not an attempt: ignored
		{Name: trace.SpanMapAttempt, Node: -1, Start: 0, End: 1}, // unplaced: ignored
	}
	g := BuildGantt(spans)
	if len(g.Bars) != 5 {
		t.Fatalf("bars = %d, want 5", len(g.Bars))
	}
	// Node 0 maps need exactly 2 lanes (task 2 reuses task 1's lane).
	if g.MapLanes[0] != 2 {
		t.Fatalf("node 0 map lanes = %d, want 2", g.MapLanes[0])
	}
	// Reduce lane sits after the map lanes.
	for _, bar := range g.Bars {
		if bar.Kind == "reduce" && bar.Node == 0 && bar.Lane != 2 {
			t.Fatalf("reduce lane = %d, want 2", bar.Lane)
		}
	}
	if g.Lanes[0] != 3 || g.Lanes[1] != 1 {
		t.Fatalf("lane totals = %v", g.Lanes)
	}

	// Property: within one (node, lane), bars never overlap.
	type key struct{ node, lane int }
	lastEnd := map[key]float64{}
	for _, bar := range g.Bars {
		k := key{bar.Node, bar.Lane}
		if bar.Start < lastEnd[k]-1e-9 {
			t.Fatalf("overlap on node %d lane %d at %v", bar.Node, bar.Lane, bar.Start)
		}
		lastEnd[k] = bar.End
	}
}

// TestGanttLanesBoundedBySlots: on a real run, lanes per node never
// exceed the configured slot counts (an attempt holds a slot for
// exactly its span).
func TestGanttLanesBoundedBySlots(t *testing.T) {
	eng, cl, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 60, 300)
	job := jt.Submit(mapreduce.JobSpec{NewMapper: nopMapper}, mapreduce.SplitsForFile(f))
	mapreduce.RunUntilDone(eng, job, 1e6)

	g := BuildGantt(jt.Tracer().Spans())
	if len(g.Bars) == 0 {
		t.Fatal("no bars from a traced run")
	}
	maxLanes := cl.Cfg.MapSlotsPerNode + cluster.ReduceSlotsPerNode
	for n, lanes := range g.Lanes {
		if lanes > maxLanes {
			t.Fatalf("node %d uses %d lanes, slot bound is %d", n, lanes, maxLanes)
		}
	}
}
