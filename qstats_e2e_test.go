package dynamicmr

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"dynamicmr/internal/qstats"
)

// TestQueryStatsE2E is the acceptance run: 50 queries through the
// facade with WithQueryStats, then every record in the dump must carry
// a consistent lifecycle (submit <= first-match <= limit-hit <=
// finish), a diagnosis whose breakdown components sum to that query's
// makespan, and sane attribution; the dump round-trips as
// dynamicmr.qstats/1 JSON.
func TestQueryStatsE2E(t *testing.T) {
	const nq = 50
	c, err := NewCluster(WithQueryStats())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: 42,
	}); err != nil {
		t.Fatal(err)
	}
	policies := []string{"LA", "HA", "MA"}
	for q := 0; q < nq; q++ {
		if _, err := c.Session("default").Execute(
			"SET dynamic.job.policy = " + policies[q%len(policies)]); err != nil {
			t.Fatal(err)
		}
		res, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 200 {
			t.Fatalf("query %d: rows = %d", q, len(res.Rows))
		}
	}

	reg := c.QueryStats()
	started, finished, failed := reg.Totals()
	if started != nq || finished != nq || failed != 0 {
		t.Fatalf("totals: started=%d finished=%d failed=%d, want %d/%d/0", started, finished, failed, nq, nq)
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump qstats.Dump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump does not round-trip: %v", err)
	}
	if dump.Schema != qstats.SchemaVersion {
		t.Fatalf("schema = %q, want %q", dump.Schema, qstats.SchemaVersion)
	}
	if len(dump.Queries) != nq || len(dump.InFlight) != 0 {
		t.Fatalf("dump has %d finished, %d in flight", len(dump.Queries), len(dump.InFlight))
	}

	for _, q := range dump.Queries {
		if q.State != qstats.StateOK {
			t.Fatalf("%s: state %q (%s)", q.ID, q.State, q.Error)
		}
		// Lifecycle ordering on the virtual clock.
		if !(q.SubmitVT <= q.FirstMatchVT && q.FirstMatchVT <= q.LimitHitVT && q.LimitHitVT <= q.FinishVT) {
			t.Fatalf("%s: lifecycle out of order: submit=%g firstMatch=%g limitHit=%g finish=%g",
				q.ID, q.SubmitVT, q.FirstMatchVT, q.LimitHitVT, q.FinishVT)
		}
		if got := q.FinishVT - q.SubmitVT; math.Abs(got-q.LatencyVirtualS) > 1e-9 {
			t.Fatalf("%s: latency %g != finish-submit %g", q.ID, q.LatencyVirtualS, got)
		}
		// Attribution.
		if q.K != 200 || q.Rows != 200 || q.Matches < 200 {
			t.Fatalf("%s: k=%d rows=%d matches=%d", q.ID, q.K, q.Rows, q.Matches)
		}
		if q.OvershootRows != q.Matches-q.K {
			t.Fatalf("%s: overshoot %d, matches %d, k %d", q.ID, q.OvershootRows, q.Matches, q.K)
		}
		if q.SplitsScanned <= 0 || q.SplitsScanned > q.SplitsGrabbed || q.SplitsGrabbed > q.SplitsTotal {
			t.Fatalf("%s: splits scanned=%d grabbed=%d total=%d", q.ID, q.SplitsScanned, q.SplitsGrabbed, q.SplitsTotal)
		}
		if q.RecordsRead <= 0 || q.MapSeconds <= 0 {
			t.Fatalf("%s: records=%d mapSeconds=%g", q.ID, q.RecordsRead, q.MapSeconds)
		}
		// The incremental per-query diagnosis must exist and its
		// breakdown must sum to this query's makespan.
		if q.Diagnosis == nil {
			t.Fatalf("%s: no diagnosis (%s)", q.ID, q.DiagError)
		}
		if err := q.Diagnosis.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if got := q.Diagnosis.Breakdown.Total(); math.Abs(got-q.LatencyVirtualS) > 1e-6 {
			t.Fatalf("%s: breakdown sums to %g, makespan %g", q.ID, got, q.LatencyVirtualS)
		}
	}

	// Per-policy aggregates: every policy saw its share, quantiles
	// bound the latencies.
	if len(dump.Policies) != len(policies) {
		t.Fatalf("dump has %d policy aggregates, want %d", len(dump.Policies), len(policies))
	}
	for _, p := range dump.Policies {
		if p.Finished == 0 || p.VirtualP50S <= 0 || p.VirtualP99S < p.VirtualP50S {
			t.Fatalf("policy %s: %+v", p.Policy, p)
		}
	}
}

// TestQueryStatsNeutralWhenDisabled: without WithQueryStats the same
// workload must follow a bit-identical virtual timeline and produce
// identical results — the instrumentation is truly absent, not merely
// cheap.
func TestQueryStatsNeutralWhenDisabled(t *testing.T) {
	run := func(enabled bool) (float64, string) {
		opts := []Option{WithTracing()}
		if enabled {
			opts = append(opts, WithQueryStats())
		}
		c, err := NewCluster(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.LoadLineItem("lineitem", DatasetSpec{
			Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: 42,
		}); err != nil {
			t.Fatal(err)
		}
		var rows bytes.Buffer
		for q := 0; q < 3; q++ {
			res, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rows {
				rows.WriteString(r.String())
				rows.WriteByte('\n')
			}
		}
		return c.Now(), rows.String()
	}
	offV, offRows := run(false)
	onV, onRows := run(true)
	if offV != onV {
		t.Fatalf("qstats changed the virtual timeline: off=%v on=%v", offV, onV)
	}
	if offRows != onRows {
		t.Fatal("qstats changed query output")
	}
}

// TestQueryStatsOverhead pins the live-registry cost: the instrumented
// serve-style loop (WithQueryStats, which also forces tracing) must
// stay within 5% of the traced-only baseline, with the same min-of-N
// discipline and absolute allowance as the other overhead guards.
func TestQueryStatsOverhead(t *testing.T) {
	const runs = 5
	run := func(stats bool) (time.Duration, float64) {
		opts := []Option{WithTracing()}
		if stats {
			opts = append(opts, WithQueryStats())
		}
		c, err := NewCluster(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.LoadLineItem("lineitem", DatasetSpec{
			Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: 42,
		}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for q := 0; q < 3; q++ {
			res, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 200 {
				t.Fatalf("rows = %d", len(res.Rows))
			}
		}
		if stats {
			if _, finished, _ := c.QueryStats().Totals(); finished != 3 {
				t.Fatalf("registry finished = %d", finished)
			}
		}
		return time.Since(start), c.Now()
	}
	minWall := func(stats bool) (time.Duration, float64) {
		best, virtual := time.Duration(1<<62), 0.0
		for i := 0; i < runs; i++ {
			w, v := run(stats)
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

	if baseV != onV {
		t.Fatalf("qstats changed the virtual timeline: base=%vs on=%vs", baseV, onV)
	}
	budget := base + base/20 + 25*time.Millisecond
	if on > budget {
		t.Fatalf("instrumented loop took %v, traced baseline %v: qstats overhead exceeds 5%%", on, base)
	}
	t.Logf("traced 3-query loop min-of-%d: %v; with qstats: %v", runs, base, on)
}
