package dynamicmr

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynamicmr/internal/obs"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/tsdb"
)

// TestTSDBNeutralWhenDisabled: the time-series engine must not perturb
// the simulation — a run with WithTimeSeries follows a bit-identical
// virtual timeline and produces identical results to a run without it.
// The collection tick adds engine events, but never changes a job's.
func TestTSDBNeutralWhenDisabled(t *testing.T) {
	run := func(enabled bool) (float64, string) {
		opts := []Option{WithTracing()}
		if enabled {
			opts = append(opts, WithTimeSeries())
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
		t.Fatalf("tsdb changed the virtual timeline: off=%v on=%v", offV, onV)
	}
	if offRows != onRows {
		t.Fatal("tsdb changed query output")
	}
}

// TestTSDBOverhead pins the engine's cost: the serve-style loop with
// the time-series engine (and an evaluated rule set) must stay within
// 5% of the traced+qstats baseline, with the same min-of-N discipline
// and absolute allowance as the other overhead guards.
func TestTSDBOverhead(t *testing.T) {
	const runs = 5
	rules := []tsdb.Rule{
		{Name: "jobs-high", Kind: tsdb.KindThreshold, Series: "cluster.running_jobs", Value: 1e9},
		{Name: "latency-slo", Kind: tsdb.KindSLOBurn, ObjectiveS: 1e9},
	}
	run := func(on bool) (time.Duration, float64) {
		opts := []Option{WithTracing(), WithQueryStats()}
		if on {
			opts = append(opts, WithTimeSeries(rules...))
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
		if on {
			if d := c.TSDB().Dump(); len(d.Series) == 0 {
				t.Fatal("tsdb collected nothing")
			}
		}
		return time.Since(start), c.Now()
	}
	minWall := func(on bool) (time.Duration, float64) {
		best, virtual := time.Duration(1<<62), 0.0
		for i := 0; i < runs; i++ {
			w, v := run(on)
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
		t.Fatalf("tsdb changed the virtual timeline: base=%vs on=%vs", baseV, onV)
	}
	budget := base + base/20 + 25*time.Millisecond
	if on > budget {
		t.Fatalf("instrumented loop took %v, baseline %v: tsdb overhead exceeds 5%%", on, base)
	}
	t.Logf("traced+qstats 3-query loop min-of-%d: %v; with tsdb+rules: %v", runs, base, on)
}

// alertRun executes the canned five-query session with a latency SLO
// at the given objective and returns the cluster plus its archive
// after a bytes round-trip.
func alertRun(t *testing.T, objectiveS float64) (*Cluster, *runarchive.Archive) {
	t.Helper()
	c, err := NewCluster(
		WithUtilizationSampling(5),
		WithTimeSeries(tsdb.Rule{
			Name: "latency-slo", Kind: tsdb.KindSLOBurn,
			ObjectiveS: objectiveS, Severity: "page",
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 2, Skew: 1, Selectivity: 0.005, Rows: 400_000, Seed: 42,
	}); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 5; q++ {
		if _, err := c.Query("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 200"); err != nil {
			t.Fatal(err)
		}
	}
	a, err := c.BuildArchive("alert twin", runarchive.RunConfig{Policy: "LA", Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := runarchive.Load(&buf)
	if err != nil {
		t.Fatalf("alert archive does not round-trip: %v", err)
	}
	return c, loaded
}

// TestAlertSLOBurnE2E is the tentpole acceptance run: a latency-SLO
// rule every query breaches must fire during the run and then appear
// on every surface — AlertsDump, /alerts and /live, the HTML report,
// the run archive — and `dynmr diff` against a non-firing twin must
// attribute the alert-set difference.
func TestAlertSLOBurnE2E(t *testing.T) {
	c, archA := alertRun(t, 0.001) // every query breaches a 1ms objective
	_, archB := alertRun(t, 1e9)   // twin: nothing ever breaches

	// The rule fired on the virtual clock and is still firing.
	ad := c.TSDB().AlertsDump()
	if ad.Schema != tsdb.AlertsSchemaVersion {
		t.Fatalf("alerts schema %q", ad.Schema)
	}
	var fired *tsdb.AlertEvent
	for i, e := range ad.Events {
		if e.Rule == "latency-slo" && e.State == tsdb.StateFiring {
			fired = &ad.Events[i]
			break
		}
	}
	if fired == nil {
		t.Fatalf("latency-slo never fired; events: %+v", ad.Events)
	}
	if fired.TimeS <= 0 || fired.Value <= 0 || fired.Severity != "page" {
		t.Fatalf("firing event: %+v", fired)
	}
	if len(ad.Active) != 1 || ad.Active[0].Rule != "latency-slo" {
		t.Fatalf("active set: %+v", ad.Active)
	}
	// The burn percentage is also a derived series.
	if _, ok := c.TSDB().Latest("slo.latency-slo.burn_pct"); !ok {
		t.Fatal("no slo.latency-slo.burn_pct series")
	}

	// /alerts and /live surface the firing rule from the published
	// snapshot.
	srv := obs.NewServer(c.Sampler(), c.QueryStats(), c.TSDB())
	get := func(path string) string {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s status %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	var served tsdb.AlertsDump
	if err := json.Unmarshal([]byte(get("/alerts")), &served); err != nil {
		t.Fatalf("bad /alerts JSON: %v", err)
	}
	if len(served.Active) != 1 || served.Active[0].Rule != "latency-slo" {
		t.Fatalf("/alerts active set: %+v", served.Active)
	}
	live := get("/live")
	for _, want := range []string{"alert", "latency-slo", "page"} {
		if !strings.Contains(live, want) {
			t.Errorf("/live missing %q", want)
		}
	}

	// The HTML report rendered from the archive carries the alert
	// section and timeline markers.
	var rep bytes.Buffer
	if err := archA.Render(&rep, "report"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"latency-slo", "mark-alert", "slo_burn"} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}

	// The archive round-trip kept the series and the alert log.
	if archA.Series == nil || len(archA.Series.Series) == 0 {
		t.Fatal("archive lost the time-series dump")
	}
	if archA.Alerts == nil || len(archA.Alerts.Events) == 0 {
		t.Fatal("archive lost the alert log")
	}
	if archA.Manifest.Counts.AlertEvents != len(archA.Alerts.Events) {
		t.Fatalf("manifest counts %d alert events, archive has %d",
			archA.Manifest.Counts.AlertEvents, len(archA.Alerts.Events))
	}

	// Diffing against the non-firing twin attributes the alert-set
	// difference.
	diff, err := runarchive.Compare(archA, archB)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.AlertsOnlyA) == 0 {
		t.Fatalf("diff missed the alert-set difference: %+v", diff.AlertsOnlyA)
	}
	found := false
	for _, sig := range diff.AlertsOnlyA {
		if sig == "latency-slo(firing)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("alerts only in A: %v, want latency-slo(firing)", diff.AlertsOnlyA)
	}
	if len(diff.AlertsOnlyB) != 0 {
		t.Fatalf("alerts only in B: %v, want none", diff.AlertsOnlyB)
	}
}
