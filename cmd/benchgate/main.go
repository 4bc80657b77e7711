// Command benchgate compares `go test -bench` output against the
// perf-trajectory budgets recorded in BENCH_results.json and exits
// non-zero on regression, so CI catches hot-path slowdowns the unit
// tests cannot see.
//
// Usage:
//
//	go test ./internal/sim ./internal/mapreduce -bench ... | benchgate
//	    [-budgets FILE] [-tolerance F]
//	    [-trend FILE] [-trend-md FILE] [-rev REV]
//	    [INPUT]
//
// INPUT is a file holding the benchmark output ("-" or absent =
// stdin). Budgets come from the "bench_budgets" object of -budgets
// (default BENCH_results.json):
//
//	"bench_budgets": {
//	  "calibration_ns_per_op": 462000,
//	  "budgets": {
//	    "BenchmarkEventThroughput": {"ns_per_op": 63.2, "allocs_per_op": 0},
//	    "BenchmarkQueryRecord": {"ns_per_op": 50000, "allocs_per_op": 133, "tolerance_pct": 40},
//	    "BenchmarkArchiveWriteQueries": {"ns_per_op": 111000000, "allocs_per_op": 74, "bytes_per_op": 2100000, "tolerance_pct": 40}
//	  }
//	}
//
// The gate is one-sided: a benchmark fails when its measured ns/op
// exceeds budget x (1 + tolerance), or its allocs/op exceed the
// integer allocation budget plus 5%, rounded down (a 0 budget
// therefore pins zero allocations), or, for a budget with the optional
// "bytes_per_op", its B/op exceed that ceiling plus 5% (a budgeted
// benchmark whose output lacks B/op fails: run it with -benchmem).
// Running faster than budget always passes — budgets are ratchets, not
// targets. A budget's optional "tolerance_pct" overrides the global
// -tolerance for that benchmark's ns/op alone (40 means +40%), so
// noisy macro-benchmarks can run looser than tight micro-benchmarks.
// Neither widens an allocation ceiling: allocations barely vary
// between runs, so a wall-clock tolerance there would let creep
// through. Every budgeted benchmark must appear in the input; a
// missing one fails the gate so renames don't silently drop coverage.
//
// Ceilings in ns/op hold on any host through BenchmarkCalibrate
// (calibrate_test.go), a fixed hash-and-sort task that shares no code
// with the program. Run it before and after the gated benchmarks: the
// gate multiplies every ns/op ceiling by the mean of the input's
// calibration runs over bench_budgets' reference time,
// calibration_ns_per_op, so a host half as fast gets ceilings twice as
// high. allocs/op and B/op ceilings are not scaled. A budgets file
// without a positive reference, or an input without a calibration run,
// fails the gate.
//
// With -trend, each gated run also appends one NDJSON record (schema
// dynamicmr.trend/1) to FILE — per-benchmark ns/op + allocs/op against
// their budgets and the overall pass/fail — turning the point-in-time
// gate into a longitudinal series. -trend-md renders the series' most
// recent entries as a markdown table (for CI job summaries), and -rev
// stamps the record with a revision (e.g. the CI commit SHA).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"
)

// budget is one benchmark's ceiling from BENCH_results.json.
type budget struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// BytesPerOp, when present, is a B/op ceiling.
	BytesPerOp *int64 `json:"bytes_per_op,omitempty"`
	// TolerancePct, when present, overrides the global -tolerance for
	// this benchmark's ns/op (percent: 40 allows +40% over budget).
	TolerancePct *float64 `json:"tolerance_pct,omitempty"`
}

// result is one parsed `go test -bench` output line.
type result struct {
	nsPerOp     float64
	allocsPerOp int64
	hasAllocs   bool
	bytesPerOp  int64
	hasBytes    bool
}

// trendBench is one benchmark's measurement in a trend record.
type trendBench struct {
	NsPerOp           float64 `json:"ns_per_op"`
	AllocsPerOp       *int64  `json:"allocs_per_op,omitempty"`
	BudgetNsPerOp     float64 `json:"budget_ns_per_op"`
	BudgetAllocsPerOp int64   `json:"budget_allocs_per_op"`
	// The B/op fields are present for benchmarks with a bytes_per_op
	// budget.
	BytesPerOp       *int64  `json:"bytes_per_op,omitempty"`
	BudgetBytesPerOp *int64  `json:"budget_bytes_per_op,omitempty"`
	TolerancePct     float64 `json:"tolerance_pct"`
	OK               bool    `json:"ok"`
}

// trendRecord is one BENCH_trend.jsonl line (schema dynamicmr.trend/1).
// Records written before -suite and -archives were removed also carry
// "suite" and "archives" fields, which loading ignores.
type trendRecord struct {
	Schema string `json:"schema"`
	UnixMS int64  `json:"unix_ms"`
	GitRev string `json:"git_rev,omitempty"`
	Pass   bool   `json:"pass"`
	// CalibrationScale is the factor the run's ns/op ceilings were
	// multiplied by.
	CalibrationScale float64               `json:"calibration_scale"`
	Benchmarks       map[string]trendBench `json:"benchmarks"`
}

// trendSchemaVersion identifies BENCH_trend.jsonl records.
const trendSchemaVersion = "dynamicmr.trend/1"

// calibrationBench names the benchmark whose time, against the stored
// reference, scales the ns/op ceilings.
const calibrationBench = "BenchmarkCalibrate"

func main() {
	budgetsPath := flag.String("budgets", "BENCH_results.json", "JSON file whose bench_budgets object holds the per-benchmark ceilings")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression over budget before failing (per-benchmark tolerance_pct overrides)")
	trendPath := flag.String("trend", "", "append this run as one NDJSON record (schema dynamicmr.trend/1) to FILE")
	trendMD := flag.String("trend-md", "", "render the trend series' recent entries as a markdown table to FILE (requires -trend)")
	rev := flag.String("rev", "", "revision to stamp trend records with (e.g. the CI commit SHA)")
	flag.Parse()

	budgets, calRef, err := loadBudgets(*budgetsPath)
	if err != nil {
		fatal(err)
	}
	if len(budgets) == 0 {
		fatal(fmt.Errorf("%s has no bench_budgets entries", *budgetsPath))
	}

	var in io.Reader = os.Stdin
	if arg := flag.Arg(0); arg != "" && arg != "-" {
		f, err := os.Open(arg)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	runs, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	scale, err := calibrationScale(os.Stdout, runs[calibrationBench], calRef)
	if err != nil {
		fatal(err)
	}
	results := make(map[string]result, len(runs))
	for name, rs := range runs {
		results[name] = rs[len(rs)-1]
	}

	failed, rows := gate(os.Stdout, budgets, results, *tolerance, scale, *budgetsPath)

	if *trendPath != "" {
		rec := trendRecord{
			Schema:           trendSchemaVersion,
			UnixMS:           time.Now().UnixMilli(),
			GitRev:           *rev,
			Pass:             !failed,
			CalibrationScale: scale,
			Benchmarks:       rows,
		}
		if err := appendTrend(*trendPath, rec); err != nil {
			fatal(err)
		}
		fmt.Printf("trend: appended %s record to %s\n", trendSchemaVersion, *trendPath)
		if *trendMD != "" {
			md, err := renderTrendMarkdown(*trendPath, 10)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*trendMD, []byte(md), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("trend: markdown table written to %s\n", *trendMD)
		}
	} else if *trendMD != "" {
		fatal(fmt.Errorf("-trend-md requires -trend"))
	}

	if failed {
		os.Exit(1)
	}
}

// calibrationScale returns the factor the ns/op ceilings are
// multiplied by: the mean ns/op of the calibration runs over ref, the
// reference stored with the budgets (positive; loadBudgets checks it).
// It reports the factor on w.
func calibrationScale(w io.Writer, runs []result, ref float64) (float64, error) {
	if len(runs) == 0 {
		return 0, fmt.Errorf("the input has no %s run (run it before and after the gated benchmarks)",
			calibrationBench)
	}
	sum := 0.0
	for _, r := range runs {
		sum += r.nsPerOp
	}
	mean := sum / float64(len(runs))
	scale := mean / ref
	fmt.Fprintf(w, "calibration: %s %.0f ns/op (mean of %d) against reference %.0f: ns/op ceilings x%.3f\n",
		calibrationBench, mean, len(runs), ref, scale)
	return scale, nil
}

// gate checks every budgeted benchmark against its measurement,
// printing one line per benchmark to w; scale multiplies the ns/op
// ceilings (see calibrationScale). It returns whether any check failed
// plus the per-benchmark trend rows (missing benchmarks are absent
// from the rows but still fail the gate).
func gate(w io.Writer, budgets map[string]budget, results map[string]result,
	globalTolerance, scale float64, budgetsPath string) (failed bool, rows map[string]trendBench) {
	rows = make(map[string]trendBench)
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		bud := budgets[name]
		res, ok := results[name]
		if !ok {
			fmt.Fprintf(w, "FAIL %s: budgeted in %s but not found in benchmark output (renamed or no longer runs?)\n",
				name, budgetsPath)
			failed = true
			continue
		}
		tol := globalTolerance
		tolNote := ""
		if bud.TolerancePct != nil {
			tol = *bud.TolerancePct / 100
			tolNote = " [per-benchmark]"
		}
		nsLimit := bud.NsPerOp * scale * (1 + tol)
		allocLimit := allocCeiling(bud.AllocsPerOp)
		ok = true
		if res.nsPerOp > nsLimit {
			fmt.Fprintf(w, "FAIL %s: %.1f ns/op exceeds budget %.1f ns/op (+%d%% tolerance%s, x%.3f host -> limit %.1f)\n",
				name, res.nsPerOp, bud.NsPerOp, int(tol*100), tolNote, scale, nsLimit)
			ok, failed = false, true
		}
		if res.hasAllocs && res.allocsPerOp > allocLimit {
			fmt.Fprintf(w, "FAIL %s: %d allocs/op exceeds budget %d allocs/op (+5%% -> limit %d)\n",
				name, res.allocsPerOp, bud.AllocsPerOp, allocLimit)
			ok, failed = false, true
		}
		bytesNote := ""
		if bud.BytesPerOp != nil {
			bytesLimit := allocCeiling(*bud.BytesPerOp)
			switch {
			case !res.hasBytes:
				fmt.Fprintf(w, "FAIL %s: budgets %d B/op but the output has no B/op (run with -benchmem)\n",
					name, *bud.BytesPerOp)
				ok, failed = false, true
			case res.bytesPerOp > bytesLimit:
				fmt.Fprintf(w, "FAIL %s: %d B/op exceeds budget %d B/op (+5%% -> limit %d)\n",
					name, res.bytesPerOp, *bud.BytesPerOp, bytesLimit)
				ok, failed = false, true
			default:
				bytesNote = fmt.Sprintf(", %d B/op (budget %d)", res.bytesPerOp, *bud.BytesPerOp)
			}
		}
		if ok {
			allocs := "?"
			if res.hasAllocs {
				allocs = strconv.FormatInt(res.allocsPerOp, 10)
			}
			fmt.Fprintf(w, "ok   %s: %.1f ns/op (budget %.1f), %s allocs/op (budget %d)%s\n",
				name, res.nsPerOp, bud.NsPerOp, allocs, bud.AllocsPerOp, bytesNote)
		}
		row := trendBench{
			NsPerOp:           res.nsPerOp,
			BudgetNsPerOp:     bud.NsPerOp,
			BudgetAllocsPerOp: bud.AllocsPerOp,
			TolerancePct:      tol * 100,
			OK:                ok,
		}
		if res.hasAllocs {
			n := res.allocsPerOp
			row.AllocsPerOp = &n
		}
		if bud.BytesPerOp != nil {
			row.BudgetBytesPerOp = bud.BytesPerOp
			if res.hasBytes {
				n := res.bytesPerOp
				row.BytesPerOp = &n
			}
		}
		rows[name] = row
	}
	return failed, rows
}

// allocCeiling is the limit of an allocs/op or B/op budget:
// floor(budget × 1.05). The 5% holds what varies between runs of one
// binary (BenchmarkArchiveWriteQueries read 72-75 allocs/op over three
// runs against its 74), and no tolerance widens it.
func allocCeiling(budget int64) int64 { return budget + budget/20 }

// benchLine matches e.g.
//
//	BenchmarkEventThroughput-4  17983382  63.2 ns/op  0 B/op  0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.eE+]+) ns/op(?:\s+[\d.eE+]+ [MG]?B/s)?(?:\s+([\d.eE+]+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parseBench collects benchmark result lines keyed by name with the
// GOMAXPROCS suffix stripped, each name's runs in input order; the gate
// checks a budget against the last run. A result line whose ns/op, B/op
// or allocs/op does not parse as a number (say "1.2.3", or more digits
// than an int64 holds) is an error: skipping it, or only one of its
// counts, would pass a gate it never checked.
func parseBench(r io.Reader) (map[string][]result, error) {
	out := make(map[string][]result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %s ns/op: %w", line, m[1], err)
		}
		r := result{nsPerOp: ns}
		if m[3] != "" {
			n, err := strconv.ParseInt(m[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %s B/op: %w", line, m[1], err)
			}
			r.bytesPerOp, r.hasBytes = n, true
		}
		if m[4] != "" {
			n, err := strconv.ParseInt(m[4], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %s allocs/op: %w", line, m[1], err)
			}
			r.allocsPerOp, r.hasAllocs = n, true
		}
		out[m[1]] = append(out[m[1]], r)
	}
	return out, sc.Err()
}

// loadBudgets extracts the bench_budgets object's ceilings and
// calibration reference, ignoring the rest of the trajectory file. A
// missing, zero or negative reference is an error: without it the gate
// could not scale its ns/op ceilings to the host.
func loadBudgets(path string) (map[string]budget, float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var doc struct {
		BenchBudgets struct {
			CalibrationNsPerOp float64           `json:"calibration_ns_per_op"`
			Budgets            map[string]budget `json:"budgets"`
		} `json:"bench_budgets"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	if ref := doc.BenchBudgets.CalibrationNsPerOp; ref <= 0 {
		return nil, 0, fmt.Errorf("%s: bench_budgets.calibration_ns_per_op is %v; it must be the positive %s reference time",
			path, ref, calibrationBench)
	}
	return doc.BenchBudgets.Budgets, doc.BenchBudgets.CalibrationNsPerOp, nil
}

// appendTrend appends one NDJSON record to the trend file.
func appendTrend(path string, rec trendRecord) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(buf, '\n'))
	return err
}

// loadTrend reads every parseable record of a trend file, skipping
// records from other schemas.
func loadTrend(path string) ([]trendRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []trendRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec trendRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Schema != trendSchemaVersion {
			continue
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// renderTrendMarkdown renders the newest maxRows trend records as a
// markdown table, one row per run, one column per benchmark seen in
// those runs.
func renderTrendMarkdown(path string, maxRows int) (string, error) {
	recs, err := loadTrend(path)
	if err != nil {
		return "", err
	}
	if len(recs) == 0 {
		return "", fmt.Errorf("%s: no %s records", path, trendSchemaVersion)
	}
	if len(recs) > maxRows {
		recs = recs[len(recs)-maxRows:]
	}
	seen := make(map[string]bool)
	var names []string
	for _, r := range recs {
		for name := range r.Benchmarks {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	slices.Sort(names)

	var b strings.Builder
	b.WriteString("### Benchmark trend (ns/op, allocs/op)\n\n")
	b.WriteString("| when (UTC) | rev | gate |")
	for _, name := range names {
		fmt.Fprintf(&b, " %s |", strings.TrimPrefix(name, "Benchmark"))
	}
	b.WriteString("\n|---|---|---|")
	for range names {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, r := range recs {
		when := time.UnixMilli(r.UnixMS).UTC().Format("2006-01-02 15:04")
		rev := r.GitRev
		if rev == "" {
			rev = "—"
		} else if len(rev) > 12 {
			rev = rev[:12]
		}
		verdict := "pass"
		if !r.Pass {
			verdict = "**FAIL**"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |", when, rev, verdict)
		for _, name := range names {
			tb, ok := r.Benchmarks[name]
			if !ok {
				b.WriteString(" — |")
				continue
			}
			cell := formatNs(tb.NsPerOp)
			if tb.AllocsPerOp != nil {
				cell += fmt.Sprintf(", %d", *tb.AllocsPerOp)
			}
			if !tb.OK {
				cell = "**" + cell + "**"
			}
			fmt.Fprintf(&b, " %s |", cell)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// formatNs renders an ns/op value compactly (63.2, 50.0k, 3.10M).
func formatNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fM", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fk", ns/1e3)
	default:
		return fmt.Sprintf("%.1f", ns)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
