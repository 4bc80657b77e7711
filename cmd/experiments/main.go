// Command experiments regenerates every table and figure from the
// paper's evaluation section (§V) on the simulated cluster and prints
// the result grids, each annotated with the paper's qualitative claims
// for comparison.
//
// Usage:
//
//	experiments [-run all|tableI|tableII|tableIII|figure4|figure5|figure6|figure7|figure8]
//	            [-mode quick|paper] [-j N] [-scan-workers N]
//	            [-input-path full|skip|index] [-policies LIST] [-csv]
//	            [-trace-out DIR] [-report-out DIR] [-sample-interval S]
//	            [-archive-out DIR] [-alert-rules FILE]
//	            [-log-out FILE] [-log-level LEVEL]
//	            [-bench-json FILE] [-cpuprofile FILE]
//
// -j runs up to N sweep cells concurrently (default runtime.NumCPU).
// Parallelism is across cells only: each cell owns a private simulated
// cluster whose virtual time never observes the pool, and results are
// assembled in enumeration order, so output is byte-identical to -j 1.
//
// -scan-workers sizes the sweep-wide scan-executor pool (default
// runtime.NumCPU; 0 disables it). The pool runs pure map record scans
// off the simulator goroutines, overlapping real compute with
// simulated I/O time; simulated costs come from split metadata and
// results are joined at completion-event time, so output is
// byte-identical at any setting.
//
// -input-path selects how map tasks read their splits: full (the
// default) reads every block and is byte-identical to the seed; skip
// consults the load-time zone maps and charges simulated I/O only for
// blocks that can contain predicate matches; index additionally reads
// matches through the per-partition clustered index and grabs
// statistically promising splits first. skip and index change
// simulated costs and provider decisions — the tables quantify the
// difference rather than hide it.
//
// -policies restricts the sweeps to a comma-separated subset of
// Table I's policies (e.g. -policies LA,Hadoop); CI's smoke job uses
// it to run a single figure-6 cell quickly.
//
// -bench-json writes per-artifact wall-clock timings as JSON to FILE
// (the BENCH_results.json perf trajectory).
//
// -cpuprofile writes a CPU profile of the whole run to FILE, for
// `go tool pprof`. It is flushed before the command exits, on failure
// too.
//
// With -trace-out, each multi-user workload cell (figures 6-8) writes
// its 30-second utilization timeline as a CSV file into DIR (created
// if missing), alongside the printed summary tables.
//
// With -report-out, every figure cell (5-8) additionally runs with
// tracing and a utilization sampler enabled and writes one
// self-contained HTML run report into DIR (created if missing):
// cluster/per-node time-series, a slot-occupancy Gantt joined from the
// trace spans, and the Input Provider decision log. -sample-interval
// overrides the sampler cadence (virtual seconds; default 2 s for the
// single-user figure-5 cells, 30 s for the workload figures) and the
// -alert-rules collection tick.
//
// With -archive-out, every figure cell (5-8) additionally runs with
// tracing enabled and writes one cross-run archive into DIR (created
// if missing): <cell>.archive.gz, schema dynamicmr.archive/1, holding
// the cell's trace spans, Input Provider decisions, per-job diagnoses,
// counters/gauges and run config. The diagnosis invariants — critical
// path tiles the makespan, breakdown components sum to it — are
// enforced per cell. `dynmr render diag-csv` turns an archive into the
// cell's per-job diagnosis CSV; archives from two sweeps feed
// `dynmr diff` for regression attribution. Cell archives are
// unstamped, so their bytes are deterministic across reruns.
//
// With -alert-rules, every figure cell (5-8) runs a private
// time-series engine (internal/tsdb) on its own virtual clock,
// evaluating the file's declarative alert/SLO rules (JSON
// {"rules": [...]}; threshold, rate_of_change, slo_burn). When
// -archive-out is also set, the cell archives carry the series and
// alert log: `dynmr render alerts` prints a cell's alert dump (schema
// dynamicmr.alerts/1), and `dynmr diff` between two sweeps attributes
// alert-set differences. Alert dumps carry only virtual timestamps, so
// cell bytes stay deterministic across reruns.
//
// With -log-out, the sweeps' structured log stream (job lifecycle,
// Input Provider decisions, query execution) is written to FILE as
// NDJSON, each record stamped with the originating cell's virtual
// clock; -log-level gates the records (debug includes every Input
// Provider decision).
//
// Quick mode (default) shrinks datasets and measurement windows about
// an order of magnitude and finishes in minutes; paper mode uses the
// full §V parameters (TPC-H scales 5-100, k = 10 000, 10 users,
// hour-long virtual windows).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dynamicmr/internal/experiments"
	"dynamicmr/internal/tsdb"
	"dynamicmr/internal/vlog"
)

func main() {
	run := flag.String("run", "all", "comma-separated artifacts to regenerate: all, tableI, tableII, tableIII, figure4, figure5, figure6, figure7, figure8, ablationInterval, ablationThreshold, ablationGrab, ablationAdaptive, ablationInputPath")
	mode := flag.String("mode", "quick", "quick (scaled-down, minutes) or paper (full §V parameters)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	traceOut := flag.String("trace-out", "", "directory for per-cell utilization timeline CSVs (figures 6-8)")
	reportOut := flag.String("report-out", "", "directory for per-cell self-contained HTML run reports (figures 5-8)")
	sampleInterval := flag.Float64("sample-interval", 0, "observability sampler cadence in virtual seconds for -report-out time-series and -alert-rules ticks (0 = defaults)")
	jobs := flag.Int("j", runtime.NumCPU(), "sweep cells to run concurrently (1 = sequential; output is identical either way)")
	scanWorkers := flag.Int("scan-workers", runtime.NumCPU(), "scan-executor pool size for off-sim-thread map scans (0 = inline; output is identical either way)")
	inputPath := flag.String("input-path", "full", "map-task input path: full (every block read; seed-identical output), skip (zone-map skip-scan) or index (clustered-index reads + informed grab ordering)")
	policies := flag.String("policies", "", "comma-separated subset of Table I policies to sweep (default: all)")
	benchJSON := flag.String("bench-json", "", "write per-artifact wall-clock timings as JSON to FILE")
	archiveOut := flag.String("archive-out", "", "directory for per-cell cross-run archives (figures 5-8; *.archive.gz, view with `dynmr render`, compare with `dynmr diff`)")
	alertRules := flag.String("alert-rules", "", "load declarative alert/SLO rules from FILE (JSON {\"rules\": [...]}) and evaluate them on every cell's virtual clock")
	logOut := flag.String("log-out", "", "write the sweeps' virtual-clock NDJSON log stream to FILE")
	logLevel := flag.String("log-level", "info", "log level for -log-out: debug, info, warn or error")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to FILE")
	flag.Parse()

	var opt experiments.Options
	switch *mode {
	case "quick":
		opt = experiments.QuickOptions()
	case "paper":
		opt = experiments.DefaultOptions()
	default:
		fmt.Fprintf(os.Stderr, "unknown -mode %q (quick or paper)\n", *mode)
		os.Exit(2)
	}
	if *traceOut != "" {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		opt.TraceDir = *traceOut
	}
	if *reportOut != "" {
		if err := os.MkdirAll(*reportOut, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		opt.ReportDir = *reportOut
	}
	if *archiveOut != "" {
		if err := os.MkdirAll(*archiveOut, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		opt.ArchiveDir = *archiveOut
	}
	if *alertRules != "" {
		data, err := os.ReadFile(*alertRules)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		rules, err := tsdb.ParseRules(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		opt.AlertRules = rules
	}
	if *logOut != "" {
		level, err := vlog.ParseLevel(*logLevel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		f, err := os.Create(*logOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		opt.LogWriter = f
		opt.LogLevel = level
	}
	opt.SampleIntervalS = *sampleInterval
	opt.Parallelism = *jobs
	opt.ScanWorkers = *scanWorkers
	opt.InputPath = *inputPath
	if *policies != "" {
		opt.Policies = strings.Split(*policies, ",")
	}

	// stopProfile stops and flushes the CPU profile, if one runs, and
	// reports whether it was written.
	stopProfile := func() bool { return true }
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		stopProfile = func() bool {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: cpuprofile: %v\n", err)
				return false
			}
			return true
		}
	}

	targets := strings.Split(strings.ToLower(*run), ",")
	want := func(name string) bool {
		for _, t := range targets {
			if t == "all" || t == strings.ToLower(name) {
				return true
			}
		}
		return false
	}

	emit := func(tables ...*experiments.Table) {
		for _, t := range tables {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.Render())
			}
		}
	}
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		stopProfile()
		os.Exit(1)
	}
	type artifactTiming struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"seconds"`
	}
	var timings []artifactTiming
	suiteStart := time.Now()
	timed := func(name string, f func() error) {
		if !want(name) {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			fail(name, err)
		}
		elapsed := time.Since(start)
		timings = append(timings, artifactTiming{Name: name, Seconds: elapsed.Seconds()})
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", name, elapsed.Round(time.Millisecond))
	}

	timed("tableI", func() error { emit(experiments.TableI()); return nil })
	timed("tableII", func() error {
		t, err := experiments.TableII(opt)
		if err != nil {
			return err
		}
		emit(t)
		return nil
	})
	timed("tableIII", func() error { emit(experiments.TableIII()); return nil })
	timed("figure4", func() error {
		t, err := experiments.Figure4(opt)
		if err != nil {
			return err
		}
		emit(t)
		return nil
	})
	timed("figure5", func() error {
		r, err := experiments.Figure5(opt)
		if err != nil {
			return err
		}
		emit(r.Tables()...)
		return nil
	})
	timed("figure6", func() error {
		r, err := experiments.Figure6(opt)
		if err != nil {
			return err
		}
		emit(r.Tables()...)
		return nil
	})
	timed("figure7", func() error {
		r, err := experiments.Figure7(opt)
		if err != nil {
			return err
		}
		emit(r.Tables()...)
		return nil
	})
	timed("figure8", func() error {
		r, err := experiments.Figure8(opt)
		if err != nil {
			return err
		}
		emit(r.Tables()...)
		return nil
	})
	for _, abl := range []struct {
		name string
		f    func(experiments.Options) (*experiments.Table, error)
	}{
		{"ablationInterval", experiments.AblationInterval},
		{"ablationThreshold", experiments.AblationThreshold},
		{"ablationGrab", experiments.AblationGrabScale},
		{"ablationAdaptive", experiments.AblationAdaptive},
		{"ablationInputPath", experiments.AblationInputPath},
	} {
		abl := abl
		timed(abl.name, func() error {
			t, err := abl.f(opt)
			if err != nil {
				return err
			}
			emit(t)
			return nil
		})
	}

	if *benchJSON != "" {
		report := struct {
			Mode         string           `json:"mode"`
			Parallelism  int              `json:"parallelism"`
			ScanWorkers  int              `json:"scan_workers"`
			InputPath    string           `json:"input_path"`
			GOMAXPROCS   int              `json:"gomaxprocs"`
			Policies     []string         `json:"policies"`
			Artifacts    []artifactTiming `json:"artifacts"`
			TotalSeconds float64          `json:"total_seconds"`
		}{
			Mode:         *mode,
			Parallelism:  *jobs,
			ScanWorkers:  *scanWorkers,
			InputPath:    *inputPath,
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			Policies:     opt.Policies,
			Artifacts:    timings,
			TotalSeconds: time.Since(suiteStart).Seconds(),
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fail("bench-json", err)
		}
		if err := os.WriteFile(*benchJSON, append(buf, '\n'), 0o644); err != nil {
			fail("bench-json", err)
		}
		fmt.Fprintf(os.Stderr, "[benchmark timings written to %s]\n", *benchJSON)
	}
	if !stopProfile() {
		os.Exit(1)
	}
}

// startCPUProfile starts a CPU profile written to path and returns the
// function that stops it, flushes it and closes the file. The profile
// goes through a bufio.Writer because pprof drops write errors, and
// Flush returns the first one.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err := pprof.StartCPUProfile(w); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		err := w.Flush()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}
