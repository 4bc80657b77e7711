// Command experiments regenerates every table and figure from the
// paper's evaluation section (§V) on the simulated cluster and prints
// the result grids, each annotated with the paper's qualitative claims
// for comparison.
//
// Usage:
//
//	experiments [-run all|tableI|tableII|tableIII|figure4|figure5|figure6|figure7|figure8|ablation...]
//	            [-mode quick|paper] [-j N] [-scan-workers N]
//	            [-policies LIST] [-csv] [-bench-json FILE] [-cpuprofile FILE]
//	            [run flags]
//
// The run flags are the ones dynmr shares (internal/runflags):
//
//	[-input-path full|skip|index] [-archive-out DIR]
//	[-alert-rules FILE] [-log-out FILE] [-log-level LEVEL]
//
// Here -archive-out names a directory (created if missing) that
// receives one archive per figure 5-8 cell. Every flag is
// checked before any artifact runs: an unknown -run name or another bad
// value exits 2, an I/O error 1.
//
// -j runs up to N sweep cells concurrently (default runtime.NumCPU; a
// value below 1 exits 2). Parallelism is across cells only: each cell
// owns a private simulated cluster whose virtual time never observes
// the pool, and results are assembled in enumeration order, so output
// is byte-identical to -j 1.
//
// -scan-workers sizes the sweep-wide scan-executor pool (default
// runtime.NumCPU; 0 disables it; a negative size exits 2). The pool
// runs pure map record scans off the simulator goroutines, overlapping
// real compute with simulated I/O time; simulated costs come from
// split metadata and results are joined at completion-event time, so
// output is byte-identical at any setting.
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
// Table I's policies (e.g. -policies LA,Hadoop; names match
// case-insensitively, and an unknown or repeated name exits 2); CI's
// smoke job uses it to run a single figure-6 cell quickly.
//
// -bench-json writes per-artifact wall-clock timings as JSON to FILE
// (the BENCH_results.json perf trajectory).
//
// -cpuprofile writes a CPU profile of the whole run to FILE, for
// `go tool pprof`. It is flushed before the command exits, on failure
// too.
//
// With -archive-out, every figure cell (5-8) additionally runs with
// tracing and a utilization sampler enabled and writes one cross-run
// archive into DIR: <cell>.archive.gz, schema dynamicmr.archive/1,
// holding the cell's trace spans, Input Provider decisions, 30-second
// utilization samples, the sampler's per-node snapshots (every 2 s in
// the single-user figure-5 cells, every 30 s in the workload figures),
// per-job diagnoses, counters and run config. The sampler reads
// the cluster passively, so the tables are byte-identical with or
// without the flag. The diagnosis invariants — critical path tiles the
// makespan, breakdown components sum to it — are enforced per cell.
// `dynmr render diag-csv` turns an archive into the cell's per-job
// diagnosis CSV, `dynmr render timeline` into its utilization timeline
// CSV and `dynmr render report` into its self-contained HTML run
// report (cluster and per-node time-series, a slot-occupancy Gantt,
// the Input Provider decision log and, with -alert-rules, the
// per-query and alert sections); archives from two sweeps feed
// `dynmr diff` for regression attribution. Each cell's archive is cut
// by its cluster's Cluster.BuildArchive, unstamped, so its bytes are
// deterministic across reruns.
//
// With -alert-rules, every figure cell (5-8) runs a private
// time-series engine (internal/tsdb) on its own virtual clock,
// evaluating the file's declarative alert/SLO rules (JSON
// {"rules": [...]}; threshold, rate_of_change, slo_burn); the
// ablations run none. When -archive-out is also set, the cell archives
// carry the series, the alert log and the per-query stats: `dynmr
// render alerts` prints a cell's alert dump (schema
// dynamicmr.alerts/1), and `dynmr diff` between two sweeps attributes
// alert-set differences. Alert dumps carry only virtual timestamps,
// but the per-query stats also record wall-clock latencies, so an
// alerting cell's bytes differ across reruns in those fields alone.
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
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"dynamicmr/internal/core"
	"dynamicmr/internal/experiments"
	"dynamicmr/internal/runflags"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// artifact is one table, figure or ablation -run can name.
type artifact struct {
	name string
	run  func(experiments.Options) ([]*experiments.Table, error)
}

// artifacts lists every artifact in the order -run all regenerates
// them; -run's names and help text come from this list.
var artifacts = []artifact{
	{"tableI", func(experiments.Options) ([]*experiments.Table, error) {
		return []*experiments.Table{experiments.TableI()}, nil
	}},
	{"tableII", one(experiments.TableII)},
	{"tableIII", func(experiments.Options) ([]*experiments.Table, error) {
		return []*experiments.Table{experiments.TableIII()}, nil
	}},
	{"figure4", one(experiments.Figure4)},
	{"figure5", tables(experiments.Figure5)},
	{"figure6", tables(experiments.Figure6)},
	{"figure7", tables(experiments.Figure7)},
	{"figure8", tables(experiments.Figure8)},
	{"ablationInterval", one(experiments.AblationInterval)},
	{"ablationThreshold", one(experiments.AblationThreshold)},
	{"ablationGrab", one(experiments.AblationGrabScale)},
	{"ablationAdaptive", one(experiments.AblationAdaptive)},
	{"ablationInputPath", one(experiments.AblationInputPath)},
}

// one adapts an artifact that renders a single table.
func one(f func(experiments.Options) (*experiments.Table, error)) func(experiments.Options) ([]*experiments.Table, error) {
	return func(opt experiments.Options) ([]*experiments.Table, error) {
		t, err := f(opt)
		return []*experiments.Table{t}, err
	}
}

// tables adapts a figure whose result renders several tables.
func tables[R interface{ Tables() []*experiments.Table }](f func(experiments.Options) (R, error)) func(experiments.Options) ([]*experiments.Table, error) {
	return func(opt experiments.Options) ([]*experiments.Table, error) {
		r, err := f(opt)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	}
}

// artifactNames lists the names -run accepts besides "all".
func artifactNames() []string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	return names
}

// selectArtifacts returns the artifacts a comma-separated -run list
// names (case-insensitively), in run order. An unknown name is an
// error, so a typo cannot silently skip an artifact.
func selectArtifacts(list string) ([]artifact, error) {
	all := false
	picked := make([]bool, len(artifacts))
	for _, name := range strings.Split(list, ",") {
		if strings.EqualFold(name, "all") {
			all = true
			continue
		}
		i := slices.IndexFunc(artifacts, func(a artifact) bool { return strings.EqualFold(a.name, name) })
		if i < 0 {
			return nil, fmt.Errorf("unknown -run artifact %q (want all, %s)", name, strings.Join(artifactNames(), ", "))
		}
		picked[i] = true
	}
	var out []artifact
	for i, a := range artifacts {
		if all || picked[i] {
			out = append(out, a)
		}
	}
	return out, nil
}

// selectPolicies returns the Table I policies a comma-separated
// -policies list names (case-insensitively), spelled as Table I spells
// them, in list order. An unknown name is an error, so a typo cannot
// fail a sweep after earlier artifacts printed, and so is a repeated
// one, which would sweep and print the same column twice.
func selectPolicies(list string) ([]string, error) {
	reg := core.DefaultRegistry()
	var out []string
	for _, name := range strings.Split(list, ",") {
		p, err := reg.Get(name)
		if err != nil {
			return nil, fmt.Errorf("unknown -policies name %q (want %s)", name, strings.Join(reg.Names(), ", "))
		}
		if slices.Contains(out, p.Name) {
			return nil, fmt.Errorf("-policies names %s twice", p.Name)
		}
		out = append(out, p.Name)
	}
	return out, nil
}

// run is the command: it parses args, writes the tables to stdout and
// progress and errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	runList := fs.String("run", "all", "comma-separated artifacts to regenerate: all, "+strings.Join(artifactNames(), ", "))
	mode := fs.String("mode", "quick", "quick (scaled-down, minutes) or paper (full §V parameters)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jobs := fs.Int("j", runtime.NumCPU(), "sweep cells to run concurrently (1 = sequential; output is identical either way)")
	scanWorkers := fs.Int("scan-workers", runtime.NumCPU(), "scan-executor pool size for off-sim-thread map scans (0 = inline; output is identical either way)")
	policies := fs.String("policies", "", "comma-separated subset of Table I policies to sweep (default: all)")
	benchJSON := fs.String("bench-json", "", "write per-artifact wall-clock timings as JSON to FILE")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to FILE")
	rf := runflags.Register(fs, true)
	fs.Parse(args)

	var opt experiments.Options
	switch *mode {
	case "quick":
		opt = experiments.QuickOptions()
	case "paper":
		opt = experiments.DefaultOptions()
	default:
		fmt.Fprintf(stderr, "unknown -mode %q (quick or paper)\n", *mode)
		return 2
	}
	selected, err := selectArtifacts(*runList)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	if *policies != "" {
		if opt.Policies, err = selectPolicies(*policies); err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 2
		}
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "experiments: -j must be at least 1, got %d\n", *jobs)
		return 2
	}
	if *scanWorkers < 0 {
		fmt.Fprintf(stderr, "experiments: -scan-workers must not be negative, got %d\n", *scanWorkers)
		return 2
	}
	out, err := rf.Open()
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return runflags.ExitCode(err)
	}
	if out.Log != nil {
		defer out.Log.Close()
		opt.LogWriter, opt.LogLevel = out.Log, out.LogLevel
	}
	opt.InputPath = rf.InputPath
	opt.ArchiveDir = rf.ArchiveOut
	opt.AlertRules = out.Rules
	opt.Parallelism = *jobs
	opt.ScanWorkers = *scanWorkers

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: cpuprofile: %v\n", err)
			return 1
		}
		// The profile is flushed on every return, failures included.
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(stderr, "experiments: cpuprofile: %v\n", err)
				code = 1
			}
		}()
	}

	type artifactTiming struct {
		Name    string  `json:"name"`
		Seconds float64 `json:"seconds"`
	}
	var timings []artifactTiming
	suiteStart := time.Now()
	for _, a := range selected {
		start := time.Now()
		ts, err := a.run(opt)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", a.name, err)
			return 1
		}
		for _, t := range ts {
			if *csv {
				fmt.Fprint(stdout, t.CSV())
			} else {
				fmt.Fprintln(stdout, t.Render())
			}
		}
		elapsed := time.Since(start)
		timings = append(timings, artifactTiming{Name: a.name, Seconds: elapsed.Seconds()})
		fmt.Fprintf(stderr, "[%s done in %v]\n\n", a.name, elapsed.Round(time.Millisecond))
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
			InputPath:    rf.InputPath,
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			Policies:     opt.Policies,
			Artifacts:    timings,
			TotalSeconds: time.Since(suiteStart).Seconds(),
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchJSON, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench-json: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "[benchmark timings written to %s]\n", *benchJSON)
	}
	return 0
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
