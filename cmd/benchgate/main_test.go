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
	failed, rows := gate(&out, budgets, results, 0.10, 1, "budgets.json")
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
		// floor(192 x 1.05) = 201 allocs/op, whatever the ns/op
		// tolerance: its 40% would have allowed 268.
		"BenchmarkAtCeiling": {NsPerOp: 100, AllocsPerOp: 192, TolerancePct: f64(40)},
		"BenchmarkCreep":     {NsPerOp: 100, AllocsPerOp: 192, TolerancePct: f64(40)},
	}
	results := map[string]result{
		"BenchmarkZeroAlloc": {nsPerOp: 50, allocsPerOp: 1, hasAllocs: true},
		"BenchmarkFast":      {nsPerOp: 1, allocsPerOp: 0, hasAllocs: true},
		"BenchmarkAtCeiling": {nsPerOp: 130, allocsPerOp: 201, hasAllocs: true},
		"BenchmarkCreep":     {nsPerOp: 50, allocsPerOp: 202, hasAllocs: true},
	}
	var out strings.Builder
	failed, rows := gate(&out, budgets, results, 0.25, 1, "budgets.json")
	if !failed {
		t.Fatalf("want failure from the 1-alloc overrun of a 0 budget; output:\n%s", out.String())
	}
	for name, want := range map[string]bool{"BenchmarkZeroAlloc": false, "BenchmarkFast": true,
		"BenchmarkAtCeiling": true, "BenchmarkCreep": false} {
		if rows[name].OK != want {
			t.Errorf("%s ok = %v, want %v; output:\n%s", name, rows[name].OK, want, out.String())
		}
	}
	if !strings.Contains(out.String(), "202 allocs/op exceeds budget 192 allocs/op (+5% -> limit 201)") {
		t.Errorf("an allocs/op failure should show the +5%% limit; output:\n%s", out.String())
	}
}

func TestGateMissingBenchmarkNamesBudgetFile(t *testing.T) {
	budgets := map[string]budget{"BenchmarkGone": {NsPerOp: 100}}
	var out strings.Builder
	failed, rows := gate(&out, budgets, map[string]result{}, 0.25, 1, "my_budgets.json")
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
BenchmarkEventThroughput-4   	17983382	        70.5 ns/op	       0 B/op	       0 allocs/op
PASS
`)
	got, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	evs := got["BenchmarkEventThroughput"]
	if len(evs) != 2 || evs[0].nsPerOp != 63.2 || !evs[0].hasAllocs || evs[0].allocsPerOp != 0 || evs[1].nsPerOp != 70.5 {
		t.Errorf("EventThroughput runs = %+v, want 63.2 then 70.5 ns/op", evs)
	}
	mc := got["BenchmarkMapCompletion"]
	if len(mc) != 1 || mc[0].nsPerOp != 3000000 || mc[0].allocsPerOp != 572 || !mc[0].hasBytes || mc[0].bytesPerOp != 500000 {
		t.Errorf("MapCompletion = %+v", mc)
	}
}

// The calibration runs' mean over the stored reference scales the ns/op
// ceilings and nothing else. A budgets file without a positive
// reference, or an input without a calibration run, is an error.
func TestCalibrationScalesNsCeilings(t *testing.T) {
	var out strings.Builder
	scale, err := calibrationScale(&out, []result{{nsPerOp: 900}, {nsPerOp: 1100}}, 500)
	if err != nil || scale != 2 {
		t.Fatalf("scale = %v, %v; want 2 (mean 1000 over reference 500)", scale, err)
	}
	if !strings.Contains(out.String(), "x2.000") {
		t.Errorf("calibration line should report the factor; got %q", out.String())
	}
	if _, err := calibrationScale(&out, nil, 500); err == nil || !strings.Contains(err.Error(), calibrationBench) {
		t.Errorf("an input without calibration runs should fail naming %s; got %v", calibrationBench, err)
	}
	dir := t.TempDir()
	for i, ref := range []string{``, `"calibration_ns_per_op":0,`, `"calibration_ns_per_op":-5,`, `"calibration_ns_per_0p":462000,`} {
		path := filepath.Join(dir, fmt.Sprintf("b%d.json", i))
		doc := `{"bench_budgets":{` + ref + `"budgets":{"BenchmarkA":{"ns_per_op":10,"allocs_per_op":1}}}}`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadBudgets(path); err == nil || !strings.Contains(err.Error(), "calibration_ns_per_op") {
			t.Errorf("budgets %s: want an error naming calibration_ns_per_op, got %v", doc, err)
		}
	}

	i64 := func(v int64) *int64 { return &v }
	budgets := map[string]budget{
		// Limit 100 x 2 x 1.25 = 250 ns/op at scale 2.
		"BenchmarkNs":    {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkSlow":  {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkAlloc": {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkBytes": {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: i64(1000)},
	}
	results := map[string]result{
		"BenchmarkNs":   {nsPerOp: 240, allocsPerOp: 10, hasAllocs: true},
		"BenchmarkSlow": {nsPerOp: 260, allocsPerOp: 10, hasAllocs: true},
		// Allocation ceilings do not scale: floor(10 x 1.05) = 10 and
		// 1050 B/op at any scale.
		"BenchmarkAlloc": {nsPerOp: 50, allocsPerOp: 11, hasAllocs: true},
		"BenchmarkBytes": {nsPerOp: 50, allocsPerOp: 10, hasAllocs: true, bytesPerOp: 1051, hasBytes: true},
	}
	out.Reset()
	_, rows := gate(&out, budgets, results, 0.25, 2, "budgets.json")
	for name, want := range map[string]bool{"BenchmarkNs": true, "BenchmarkSlow": false,
		"BenchmarkAlloc": false, "BenchmarkBytes": false} {
		if rows[name].OK != want {
			t.Errorf("%s ok = %v, want %v; output:\n%s", name, rows[name].OK, want, out.String())
		}
	}
	if !strings.Contains(out.String(), "x2.000 host -> limit 250.0") {
		t.Errorf("an ns/op failure should show the scaled limit; output:\n%s", out.String())
	}
}

func TestGateBytesPerOp(t *testing.T) {
	i64 := func(v int64) *int64 { return &v }
	budgets := map[string]budget{
		// +5%: limit 1050 B/op, under any ns/op tolerance.
		"BenchmarkUnder":   {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: i64(1000)},
		"BenchmarkOver":    {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: i64(1000)},
		"BenchmarkNoMem":   {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: i64(1000)},
		"BenchmarkNoCeil":  {NsPerOp: 100, AllocsPerOp: 10},
		"BenchmarkLoosest": {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: i64(1000), TolerancePct: f64(100)},
	}
	results := map[string]result{
		"BenchmarkUnder":   {nsPerOp: 50, allocsPerOp: 10, hasAllocs: true, bytesPerOp: 1050, hasBytes: true},
		"BenchmarkOver":    {nsPerOp: 50, allocsPerOp: 10, hasAllocs: true, bytesPerOp: 1251, hasBytes: true},
		"BenchmarkNoMem":   {nsPerOp: 50},
		"BenchmarkNoCeil":  {nsPerOp: 50, allocsPerOp: 10, hasAllocs: true, bytesPerOp: 1 << 40, hasBytes: true},
		"BenchmarkLoosest": {nsPerOp: 50, allocsPerOp: 10, hasAllocs: true, bytesPerOp: 1051, hasBytes: true},
	}
	var out strings.Builder
	failed, rows := gate(&out, budgets, results, 0.25, 1, "budgets.json")
	if !failed {
		t.Fatalf("want a failure; output:\n%s", out.String())
	}
	for name, want := range map[string]bool{"BenchmarkUnder": true, "BenchmarkOver": false,
		"BenchmarkNoMem": false, "BenchmarkNoCeil": true, "BenchmarkLoosest": false} {
		if rows[name].OK != want {
			t.Errorf("%s ok = %v, want %v; output:\n%s", name, rows[name].OK, want, out.String())
		}
	}
	if r := rows["BenchmarkOver"]; r.BytesPerOp == nil || *r.BytesPerOp != 1251 || r.BudgetBytesPerOp == nil || *r.BudgetBytesPerOp != 1000 {
		t.Errorf("BenchmarkOver trend row = %+v, want 1251 B/op against 1000", r)
	}
	if r := rows["BenchmarkNoCeil"]; r.BytesPerOp != nil || r.BudgetBytesPerOp != nil {
		t.Errorf("a benchmark without a bytes_per_op budget records no B/op; row = %+v", r)
	}
	if !strings.Contains(out.String(), "-benchmem") {
		t.Errorf("a missing B/op should say to run with -benchmem; output:\n%s", out.String())
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
	doc := `{"bench_budgets":{"calibration_ns_per_op":462000,"budgets":{
		"BenchmarkA":{"ns_per_op":10,"allocs_per_op":1},
		"BenchmarkB":{"ns_per_op":20,"allocs_per_op":2,"tolerance_pct":40,"bytes_per_op":4096}}}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	budgets, calRef, err := loadBudgets(path)
	if err != nil {
		t.Fatal(err)
	}
	if calRef != 462000 {
		t.Errorf("calibration reference = %v, want 462000", calRef)
	}
	if budgets["BenchmarkA"].TolerancePct != nil {
		t.Errorf("BenchmarkA should have no override")
	}
	if tp := budgets["BenchmarkB"].TolerancePct; tp == nil || *tp != 40 {
		t.Errorf("BenchmarkB override = %v, want 40", tp)
	}
	if budgets["BenchmarkA"].BytesPerOp != nil {
		t.Errorf("BenchmarkA should have no B/op ceiling")
	}
	if bp := budgets["BenchmarkB"].BytesPerOp; bp == nil || *bp != 4096 {
		t.Errorf("BenchmarkB B/op ceiling = %v, want 4096", bp)
	}
}

func TestParseBenchRejectsUnparsableCounts(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-2   100   63.2 ns/op   0 B/op   123456789012345678901 allocs/op",
		"BenchmarkX-2   100   1.2.3 ns/op   0 B/op   5 allocs/op",
		"BenchmarkX-2   100   1e400 ns/op",
		"BenchmarkX-2   100   63.2 ns/op   1.5 B/op   5 allocs/op",
	} {
		if got, err := parseBench(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%q parsed as %+v, want an error", line, got)
		}
	}
}

// FuzzParseBench checks that parseBench never panics and that every
// result it accepts, written back as a benchmark line, parses to the
// same name, ns/op, B/op and allocs/op.
func FuzzParseBench(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		got, err := parseBench(strings.NewReader(in))
		if err != nil {
			return
		}
		for name, runs := range got {
			for _, r := range runs {
				line := fmt.Sprintf("%s-2\t100\t%s ns/op", name, strconv.FormatFloat(r.nsPerOp, 'f', -1, 64))
				if r.hasBytes {
					line += fmt.Sprintf("\t%d B/op", r.bytesPerOp)
				}
				if r.hasAllocs {
					line += fmt.Sprintf("\t%d allocs/op", r.allocsPerOp)
				}
				again, err := parseBench(strings.NewReader(line))
				if err != nil {
					t.Fatalf("%q (from %s %+v) does not re-parse: %v", line, name, r, err)
				}
				if len(again) != 1 || len(again[name]) != 1 || again[name][0] != r {
					t.Fatalf("%q (from %s %+v) re-parses as %+v", line, name, r, again)
				}
			}
		}
	})
}
