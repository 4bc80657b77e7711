package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }

func TestGatePerBenchmarkTolerance(t *testing.T) {
	budgets := map[string]budget{
		// Global tolerance 0.10 → limit 110; measured 120 fails.
		"BenchmarkTight": {NsPerOp: 100, AllocsPerOp: 10},
		// Per-benchmark 50% → limit 150; the same +20% overrun passes.
		"BenchmarkLoose": {NsPerOp: 100, AllocsPerOp: 10, TolerancePct: f64(50)},
	}
	results := map[string]result{
		"BenchmarkTight": {nsPerOp: 120, allocsPerOp: 10, hasAllocs: true},
		"BenchmarkLoose": {nsPerOp: 120, allocsPerOp: 10, hasAllocs: true},
	}
	var out strings.Builder
	failed, rows := gate(&out, budgets, results, 0.10, "budgets.json")
	if !failed {
		t.Fatalf("want gate failure from BenchmarkTight; output:\n%s", out.String())
	}
	if !rows["BenchmarkLoose"].OK {
		t.Errorf("BenchmarkLoose should pass under its 50%% override; output:\n%s", out.String())
	}
	if rows["BenchmarkTight"].OK {
		t.Errorf("BenchmarkTight should fail under the 10%% global tolerance")
	}
	if got := rows["BenchmarkLoose"].TolerancePct; got != 50 {
		t.Errorf("BenchmarkLoose trend row tolerance = %v, want 50", got)
	}
	if got := rows["BenchmarkTight"].TolerancePct; got != 10 {
		t.Errorf("BenchmarkTight trend row tolerance = %v, want 10", got)
	}
}

func TestGateAllocOverrideAndRatchet(t *testing.T) {
	budgets := map[string]budget{
		// Zero alloc budget pins zero allocations regardless of tolerance.
		"BenchmarkZeroAlloc": {NsPerOp: 100, AllocsPerOp: 0, TolerancePct: f64(100)},
		// Faster than budget always passes.
		"BenchmarkFast": {NsPerOp: 100, AllocsPerOp: 10},
	}
	results := map[string]result{
		"BenchmarkZeroAlloc": {nsPerOp: 50, allocsPerOp: 1, hasAllocs: true},
		"BenchmarkFast":      {nsPerOp: 1, allocsPerOp: 0, hasAllocs: true},
	}
	var out strings.Builder
	failed, rows := gate(&out, budgets, results, 0.25, "budgets.json")
	if !failed {
		t.Fatalf("want failure from the 1-alloc overrun of a 0 budget; output:\n%s", out.String())
	}
	if rows["BenchmarkZeroAlloc"].OK {
		t.Errorf("BenchmarkZeroAlloc should fail: 1 alloc against a pinned-zero budget")
	}
	if !rows["BenchmarkFast"].OK {
		t.Errorf("BenchmarkFast should pass: budgets are ratchets, faster is fine")
	}
}

func TestGateMissingBenchmarkNamesBudgetFile(t *testing.T) {
	budgets := map[string]budget{"BenchmarkGone": {NsPerOp: 100}}
	var out strings.Builder
	failed, rows := gate(&out, budgets, map[string]result{}, 0.25, "my_budgets.json")
	if !failed {
		t.Fatal("missing benchmark must fail the gate")
	}
	if !strings.Contains(out.String(), "my_budgets.json") {
		t.Errorf("missing-benchmark error should name the budget file; got:\n%s", out.String())
	}
	if _, ok := rows["BenchmarkGone"]; ok {
		t.Errorf("missing benchmark should have no trend row")
	}
}

func TestParseBenchReader(t *testing.T) {
	in := strings.NewReader(`goos: linux
BenchmarkEventThroughput-4   	17983382	        63.2 ns/op	       0 B/op	       0 allocs/op
BenchmarkMapCompletion   	     100	   3000000 ns/op	  500000 B/op	     572 allocs/op
PASS
`)
	got, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := got["BenchmarkEventThroughput"]
	if !ok || ev.nsPerOp != 63.2 || !ev.hasAllocs || ev.allocsPerOp != 0 {
		t.Errorf("EventThroughput = %+v, ok=%v", ev, ok)
	}
	mc := got["BenchmarkMapCompletion"]
	if mc.nsPerOp != 3000000 || mc.allocsPerOp != 572 {
		t.Errorf("MapCompletion = %+v", mc)
	}
}

func TestTrendAppendAndMarkdown(t *testing.T) {
	dir := t.TempDir()
	trend := filepath.Join(dir, "BENCH_trend.jsonl")
	allocs := int64(572)
	for i, pass := range []bool{true, false} {
		rec := trendRecord{
			Schema: trendSchemaVersion,
			UnixMS: int64(1754600000000 + i*60000),
			GitRev: "0123456789abcdef",
			Pass:   pass,
			Benchmarks: map[string]trendBench{
				"BenchmarkMapCompletion": {
					NsPerOp: 3.1e6, AllocsPerOp: &allocs,
					BudgetNsPerOp: 3.1e6, BudgetAllocsPerOp: 572,
					TolerancePct: 25, OK: pass,
				},
			},
		}
		if err := appendTrend(trend, rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := loadTrend(trend)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("loadTrend returned %d records, want 2", len(recs))
	}
	if recs[1].Pass || !recs[0].Pass {
		t.Errorf("pass flags lost on round-trip: %+v", recs)
	}

	md, err := renderTrendMarkdown(trend, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MapCompletion", "0123456789ab", "**FAIL**", "3.10M"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}

	// Unknown-schema lines are skipped, not fatal, and records written
	// with the retired suite and archives fields still load.
	f, err := os.OpenFile(trend, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"schema\":\"other/1\"}\n" +
		"{\"schema\":\"dynamicmr.trend/1\",\"pass\":true,\"benchmarks\":{}," +
		"\"suite\":{\"total_seconds\":42.5},\"archives\":{\"a.archive.gz\":\"deadbeef\"}}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err = loadTrend(trend)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || !recs[2].Pass {
		t.Errorf("want the 2 records plus the older-format one, foreign-schema line skipped; got %+v", recs)
	}
}

func TestLoadBudgetsTolerancePct(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.json")
	doc := `{"bench_budgets":{"budgets":{
		"BenchmarkA":{"ns_per_op":10,"allocs_per_op":1},
		"BenchmarkB":{"ns_per_op":20,"allocs_per_op":2,"tolerance_pct":40}}}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	budgets, err := loadBudgets(path)
	if err != nil {
		t.Fatal(err)
	}
	if budgets["BenchmarkA"].TolerancePct != nil {
		t.Errorf("BenchmarkA should have no override")
	}
	if tp := budgets["BenchmarkB"].TolerancePct; tp == nil || *tp != 40 {
		t.Errorf("BenchmarkB override = %v, want 40", tp)
	}
}

func TestParseBenchRejectsUnparsableCounts(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-2   100   63.2 ns/op   0 B/op   123456789012345678901 allocs/op",
		"BenchmarkX-2   100   1.2.3 ns/op   0 B/op   5 allocs/op",
		"BenchmarkX-2   100   1e400 ns/op",
	} {
		if got, err := parseBench(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%q parsed as %+v, want an error", line, got)
		}
	}
}

// FuzzParseBench checks that parseBench never panics and that every
// result it accepts, written back as a benchmark line, parses to the
// same name, ns/op and allocs/op.
func FuzzParseBench(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		got, err := parseBench(strings.NewReader(in))
		if err != nil {
			return
		}
		for name, r := range got {
			line := fmt.Sprintf("%s-2\t100\t%s ns/op", name, strconv.FormatFloat(r.nsPerOp, 'f', -1, 64))
			if r.hasAllocs {
				line += fmt.Sprintf("\t0 B/op\t%d allocs/op", r.allocsPerOp)
			}
			again, err := parseBench(strings.NewReader(line))
			if err != nil {
				t.Fatalf("%q (from %s %+v) does not re-parse: %v", line, name, r, err)
			}
			if len(again) != 1 || again[name] != r {
				t.Fatalf("%q (from %s %+v) re-parses as %+v", line, name, r, again)
			}
		}
	})
}
