package dynamicmr

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"testing"
	"time"

	"dynamicmr/internal/diag"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/vlog"
)

// TestClusterDiagnose: the facade produces an invariant-clean report
// for the quickstart query, with a non-trivial critical path.
func TestClusterDiagnose(t *testing.T) {
	c, err := NewCluster(WithTracing(trace.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: 42,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200"); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) == 0 {
		t.Fatal("no jobs diagnosed")
	}
	for _, j := range rep.Jobs {
		if len(j.CriticalPath) < 2 {
			t.Errorf("job %d: critical path has %d node(s)", j.JobID, len(j.CriticalPath))
		}
		if j.MakespanS <= 0 {
			t.Errorf("job %d: makespan %g", j.JobID, j.MakespanS)
		}
	}
	if rep.Counters[trace.CounterPolicyEvals.String()] == 0 {
		t.Error("policy evaluation counter missing from report")
	}
}

// TestDiagnoseRequiresTracing: without WithTracing there is nothing to
// analyze, and the facade says so instead of returning an empty report.
func TestDiagnoseRequiresTracing(t *testing.T) {
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Diagnose(); err == nil {
		t.Fatal("Diagnose without WithTracing must error")
	}
}

// TestLoggingE2E: WithLogging produces NDJSON records stamped with the
// virtual clock covering the catalog, jobtracker, session, and policy
// layers — and never a wall-clock time field.
func TestLoggingE2E(t *testing.T) {
	var buf bytes.Buffer
	c, err := NewCluster(WithLogging(&buf, slog.LevelDebug))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: 42,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200"); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("log line %d is not JSON: %v: %s", n, err, sc.Text())
		}
		n++
		if _, ok := m[slog.TimeKey]; ok {
			t.Fatalf("log record carries wall-clock %q: %v", slog.TimeKey, m)
		}
		vt, ok := m[vlog.KeyVT].(float64)
		if !ok || vt < 0 {
			t.Fatalf("log record missing virtual clock: %v", m)
		}
		if msg, ok := m[slog.MessageKey].(string); ok {
			seen[msg] = true
		}
	}
	if n == 0 {
		t.Fatal("no log records emitted")
	}
	for _, want := range []string{
		"table registered", "query started", "job submitted",
		"input provider decision", "job finished", "query finished",
	} {
		if !seen[want] {
			t.Errorf("expected a %q log record; got messages %v", want, seen)
		}
	}
}

// TestDiagnoseOverhead guards the diagnosis cost: running Analyze +
// CheckInvariants on top of a traced quickstart run must stay under 5%
// of the traced run's wall clock (same min-of-N discipline and
// absolute allowance as the tracing and sampler overhead checks).
func TestDiagnoseOverhead(t *testing.T) {
	const runs = 5
	run := func(diagnose bool) (time.Duration, float64) {
		c, err := NewCluster(WithTracing(trace.Config{}))
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
		if diagnose {
			rep, err := c.Diagnose()
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start), c.Now()
	}
	minWall := func(diagnose bool) (time.Duration, float64) {
		best, virtual := time.Duration(1<<62), 0.0
		for i := 0; i < runs; i++ {
			w, v := run(diagnose)
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
		t.Fatalf("diagnosis changed the virtual timeline: base=%vs on=%vs", baseV, onV)
	}
	budget := base + base/20 + 25*time.Millisecond
	if on > budget {
		t.Fatalf("diagnosed run took %v, traced run %v: diagnosis overhead exceeds 5%%", on, base)
	}
	t.Logf("traced quickstart min-of-%d: %v; with Diagnose+CheckInvariants: %v", runs, base, on)
}

// TestDiagnoseAgainstReport cross-checks the facade report with a
// manual diag.FromTracer build: both views must agree on job count.
func TestDiagnoseAgainstReport(t *testing.T) {
	c, err := NewCluster(WithTracing(trace.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: 42,
	}); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 2; q++ {
		if _, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200"); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != diag.SchemaVersion {
		t.Errorf("schema = %q, want %q", rep.Schema, diag.SchemaVersion)
	}
	if len(rep.Jobs) != 2 {
		t.Errorf("want 2 diagnosed jobs (one per query), got %d", len(rep.Jobs))
	}
}
