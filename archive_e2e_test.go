package dynamicmr

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/trace"
)

// archiveTwinRun executes the canned three-query session with an
// n-worker scan-executor pool (0: inline scans) and returns its archive
// after a bytes round-trip, so the comparison below exercises the wire
// format, not just the in-memory structs.
func archiveTwinRun(t *testing.T, workers int) *runarchive.Archive {
	t.Helper()
	c, err := NewCluster(WithTracing(), WithQueryStats(), WithScanWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: 42,
	}); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 3; q++ {
		if _, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200"); err != nil {
			t.Fatal(err)
		}
	}
	a, err := c.BuildArchive(fmt.Sprintf("scan-workers %d twin", workers), runarchive.RunConfig{Policy: "LA", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := runarchive.Load(&buf)
	if err != nil {
		t.Fatalf("scan-workers %d archive does not round-trip: %v", workers, err)
	}
	return loaded
}

// TestArchiveOverhead guards the archiving cost: snapshotting and
// writing the bundle on top of a traced quickstart run must stay under
// 5% of the traced run's wall clock (same min-of-N discipline and
// absolute allowance as the tracing, sampler and diagnosis overhead
// checks).
func TestArchiveOverhead(t *testing.T) {
	const runs = 5
	run := func(archive bool) (time.Duration, float64) {
		c, err := NewCluster(WithTracing())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.LoadLineItem("lineitem", DatasetSpec{
			Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: 42,
		}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 200 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		if archive {
			a, err := c.BuildArchive("overhead", runarchive.RunConfig{Policy: "LA", Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Write(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start), c.Now()
	}
	minWall := func(archive bool) (time.Duration, float64) {
		best, virtual := time.Duration(1<<62), 0.0
		for i := 0; i < runs; i++ {
			w, v := run(archive)
			if w < best {
				best = w
			}
			virtual = v
		}
		return best, virtual
	}
	run(false) // warm-up
	base, baseV := minWall(false)
	on, onV := minWall(true)

	if math.Abs(baseV-onV) > 0.01*baseV {
		t.Fatalf("archiving changed the virtual timeline: base=%vs on=%vs", baseV, onV)
	}
	budget := base + base/20 + 25*time.Millisecond
	if on > budget {
		t.Fatalf("archived run took %v, traced run %v: archiving overhead exceeds 5%%", on, base)
	}
	t.Logf("traced quickstart min-of-%d: %v; with BuildArchive+Write: %v", runs, base, on)
}

// TestDiffScanWorkersTwinRuns is the acceptance pin for `dynmr diff`:
// an inline-scan and a pooled-scan run of the same session are
// virtual-time twins, so the diff must align every query, report
// per-component deltas summing to the makespan delta (here all zero),
// find no divergent provider decision — while the scan counters still
// reveal which run used the pool.
func TestDiffScanWorkersTwinRuns(t *testing.T) {
	a := archiveTwinRun(t, 0)
	b := archiveTwinRun(t, 2)

	if a.Manifest.Config.ScanWorkers != 0 || b.Manifest.Config.ScanWorkers != 2 {
		t.Fatalf("scan workers not recorded: %d / %d",
			a.Manifest.Config.ScanWorkers, b.Manifest.Config.ScanWorkers)
	}

	rep, err := runarchive.Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckInvariants(); err != nil {
		t.Fatalf("diff invariants: %v", err)
	}
	if len(rep.Jobs) != 3 || len(rep.OnlyA) != 0 || len(rep.OnlyB) != 0 {
		t.Fatalf("want 3 aligned queries, got %d (+%v/-%v)", len(rep.Jobs), rep.OnlyA, rep.OnlyB)
	}
	for _, j := range rep.Jobs {
		// qstats attaches on both sides, so alignment is query-keyed.
		if j.Key == "" || j.Key[0] != 'q' {
			t.Errorf("job %d/%d aligned by %q, want a query ID", j.AJob, j.BJob, j.Key)
		}
		// The delta-sum invariant, re-checked against the raw values.
		sum := 0.0
		for _, comp := range j.Components {
			sum += comp.DeltaS
		}
		if math.Abs(sum-j.MakespanDeltaS) > 1e-6*math.Max(1, j.AMakespanS) {
			t.Errorf("query %s: component deltas sum to %g, makespan delta %g", j.Key, sum, j.MakespanDeltaS)
		}
		// The pool is invisible to virtual time: every delta zero.
		if j.MakespanDeltaS != 0 {
			t.Errorf("query %s: makespan delta %g between scan-worker twins", j.Key, j.MakespanDeltaS)
		}
		if j.FirstDivergence != nil {
			t.Errorf("query %s: unexpected provider divergence %+v", j.Key, j.FirstDivergence)
		}
		if j.Path.FirstKindDifference != -1 {
			t.Errorf("query %s: critical paths differ at %d", j.Key, j.Path.FirstKindDifference)
		}
	}
	if rep.TotalMakespanDeltaS != 0 {
		t.Errorf("total makespan delta %g between scan-worker twins", rep.TotalMakespanDeltaS)
	}

	// The runs are simulation twins but not execution twins: the pooled
	// side must show joined async scans in the counter deltas.
	deltas := map[string]int64{}
	for _, cd := range rep.CounterDeltas {
		deltas[cd.Name] = cd.Delta
	}
	if deltas[trace.CounterScanAsync.String()] <= 0 {
		t.Errorf("pooled run should join async scans; counter deltas: %v", deltas)
	}
}

// archivePathRun is archiveTwinRun's input-path sibling: the same
// canned three-query session, run under one map-task read path. The
// dataset geometry makes pruning unavoidable on every split — 13
// zones per partition against ~20 planted matches across the table —
// so the skip-scan side is strictly faster, not just faster on the
// cold partitions off the critical path.
func archivePathRun(t *testing.T, path string) *runarchive.Archive {
	t.Helper()
	c, err := NewCluster(WithTracing(), WithQueryStats(), WithInputPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 2, Skew: 1, Selectivity: 0.00005, Partitions: 8, Rows: 400_000, Seed: 42,
	}); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 3; q++ {
		if _, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200"); err != nil {
			t.Fatal(err)
		}
	}
	a, err := c.BuildArchive(path+" run", runarchive.RunConfig{Policy: "LA", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := runarchive.Load(&buf)
	if err != nil {
		t.Fatalf("%s archive does not round-trip: %v", path, err)
	}
	return loaded
}

// TestDiffFullVsSkipScanRuns is the input-path acceptance pin for
// `dynmr diff`: diffing a full-scan run against its skip-scan twin
// must align every query, attribute the (negative) makespan delta to
// the data-read components of the breakdown, and surface the pruning
// in the scan counters — the exact workflow a user follows to confirm
// where -input-path skip saved time.
func TestDiffFullVsSkipScanRuns(t *testing.T) {
	a := archivePathRun(t, InputPathFull)
	b := archivePathRun(t, InputPathSkip)

	// Full mode stays the empty default (archive bytes identical to
	// pre-field runs); skip mode is recorded as provenance.
	if a.Manifest.Config.InputPath != "" {
		t.Fatalf("full-scan archive records input path %q, want empty", a.Manifest.Config.InputPath)
	}
	if b.Manifest.Config.InputPath != InputPathSkip {
		t.Fatalf("skip-scan archive records input path %q", b.Manifest.Config.InputPath)
	}

	rep, err := runarchive.Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckInvariants(); err != nil {
		t.Fatalf("diff invariants: %v", err)
	}
	if len(rep.Jobs) != 3 || len(rep.OnlyA) != 0 || len(rep.OnlyB) != 0 {
		t.Fatalf("want 3 aligned queries, got %d (+%v/-%v)", len(rep.Jobs), rep.OnlyA, rep.OnlyB)
	}
	for _, j := range rep.Jobs {
		if j.Key == "" || j.Key[0] != 'q' {
			t.Errorf("job %d/%d aligned by %q, want a query ID", j.AJob, j.BJob, j.Key)
		}
		sum := 0.0
		for _, comp := range j.Components {
			sum += comp.DeltaS
		}
		if math.Abs(sum-j.MakespanDeltaS) > 1e-6*math.Max(1, j.AMakespanS) {
			t.Errorf("query %s: component deltas sum to %g, makespan delta %g", j.Key, sum, j.MakespanDeltaS)
		}
		// Skip-scan must be strictly faster at z=1 — that's the point.
		if j.MakespanDeltaS >= 0 {
			t.Errorf("query %s: skip-scan makespan delta %g, want < 0", j.Key, j.MakespanDeltaS)
		}
		// ... and the diff must attribute the win to the scan: the
		// data-read components carry a net negative delta.
		read := 0.0
		for _, comp := range j.Components {
			if comp.Name == "data-read-local" || comp.Name == "data-read-remote" {
				read += comp.DeltaS
			}
		}
		if read >= 0 {
			t.Errorf("query %s: data-read delta %g, want < 0; components: %+v", j.Key, read, j.Components)
		}
	}
	if rep.TotalMakespanDeltaS >= 0 {
		t.Errorf("total makespan delta %g, want a skip-scan win", rep.TotalMakespanDeltaS)
	}

	// The counter deltas expose the mechanism: the skip side skipped
	// blocks the full side read.
	deltas := map[string]int64{}
	for _, cd := range rep.CounterDeltas {
		deltas[cd.Name] = cd.Delta
	}
	if deltas[trace.CounterScanBlocksSkipped.String()] <= 0 {
		t.Errorf("skip run should skip blocks; counter deltas: %v", deltas)
	}
	if deltas[trace.CounterScanBlocksRead.String()] >= 0 {
		t.Errorf("skip run should read fewer blocks; counter deltas: %v", deltas)
	}
}
