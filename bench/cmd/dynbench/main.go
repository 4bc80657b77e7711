// Command dynbench runs the repository's end-to-end benchmark (see
// bench/README.md).
//
//	dynbench [-runs 10] [-seconds 20] [-seed 1] [-out FILE]
//	    the suite: every workload -runs times, each run in a fresh child
//	    process with its own seed, alternating the workload order
//	dynbench -trace 1 [-spans-out FILE]
//	    the traced suite: each workload once, with the layer decorators
//	dynbench -workload W -seed N -seconds S -trace 0|1
//	    one run; the last line of standard output is its JSON result
//	dynbench compare [-bench BENCHMARK.json] OLD.json[,...] NEW.json[,...]
//	    per (workload, metric) medians, quartiles and a verdict
//
// Every form exits non-zero when a job fails its oracle check.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"dynamicmr/bench/dynbench"
	"dynamicmr/internal/runarchive"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run one workload (default: the suite of all)")
		seed     = flag.Int64("seed", 1, "input seed; suite run r uses seed+r")
		seconds  = flag.Float64("seconds", 20, "host seconds one run measures")
		traceArg = flag.Int("trace", 0, "1: per-layer metrics from decorated rounds instead of end-to-end metrics")
		runs     = flag.Int("runs", 10, "suite: runs per workload (the traced suite runs each once)")
		out      = flag.String("out", "", "suite: write every run and the per-workload summary as JSON to this file")
		spansOut = flag.String("spans-out", "", "with -trace 1: append the traced rounds' spans as NDJSON to this file")
		workDir  = flag.String("workdir", ".bench_build/work", "scratch directory for the observed workload's flush files")
		all      = flag.Bool("all", false, "one run: also report the observability and error-rate metrics in the JSON result")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traceArg != 0 && *traceArg != 1) || *seconds <= 0 || *runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *workload != "" {
		os.Exit(runOne(*workload, *seed, *seconds, *traceArg == 1, *workDir, *spansOut, *all))
	}
	os.Exit(suite(*runs, *seed, *seconds, *traceArg == 1, *workDir, *out, *spansOut))
}

// result is the one-line JSON a run prints last.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]dynbench.Metric `json:"metrics"`
}

func runOne(workload string, seed int64, seconds float64, trace bool, workDir, spansOut string, all bool) int {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dynbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	res, err := dynbench.Run(dynbench.Options{Workload: workload, Seed: seed, WorkDir: dir}, seconds, trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynbench:", err)
		return 1
	}
	r := result{Attempted: res.Attempted(), Failed: res.Failed()}
	checkErr := res.Check()
	r.Correct = checkErr == nil
	if trace {
		r.Metrics = res.PerLayer()
	} else {
		r.Metrics = res.EndToEnd()
	}
	extra := res.Unscaled()
	for k, v := range res.Observability() {
		extra[k] = v
	}
	extra["error_rate"] = dynbench.Metric{Value: float64(r.Failed) / float64(r.Attempted), Unit: "ratio"}

	fmt.Printf("dynbench %s seed=%d trace=%v rounds=%d jobs=%d failed=%d peak_rss_mb=%.1f\n",
		workload, seed, trace, len(res.Rounds), r.Attempted, r.Failed, res.PeakRSSMB)
	for i, rd := range res.Rounds {
		fmt.Printf("  round %d traced=%-5v jobs=%d cal=%.3fs setup=%.3fs loop=%.3fs oracle=%.3fs flush=%.3fs wall=%.3fs virtual=%.0fs events=%d\n",
			i, rd.Traced, rd.Jobs, rd.CalS, rd.SetupS, rd.LoopS, rd.OracleS, rd.FlushS, rd.WallS, rd.Counts.VirtualS, rd.Counts.Events)
	}
	printMetrics(workload, r.Metrics)
	printMetrics(workload, extra)
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "dynbench:", checkErr)
	}
	if spansOut != "" {
		if err := appendSpans(spansOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "dynbench:", err)
			return 1
		}
	}
	if all {
		for k, v := range extra {
			r.Metrics[k] = v
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

func printMetrics(workload string, ms map[string]dynbench.Metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-13s %-30s %14.6g %s\n", workload, k, ms[k].Value, ms[k].Unit)
	}
}

// appendSpans writes the traced rounds' spans as NDJSON, one object per
// span tagged with its workload, seed and round.
func appendSpans(path string, res *dynbench.Result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Round    int    `json:"round"`
		dynbench.Span
	}
	for i, rd := range res.Rounds {
		for _, s := range rd.Spans {
			if err := enc.Encode(line{Workload: res.Workload, Seed: res.Seed, Round: i, Span: s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// suiteFile is what the suite writes with -out and compare reads.
type suiteFile struct {
	Schema  string                            `json:"schema"`
	Commit  string                            `json:"commit"`
	Go      string                            `json:"go"`
	NProc   int                               `json:"nproc"`
	Seconds float64                           `json:"seconds"`
	Trace   bool                              `json:"trace"`
	Runs    []runRecord                       `json:"runs"`
	Summary map[string]map[string]summaryStat `json:"summary"`
}

const suiteSchema = "dynbench.suite/1"

type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

type summaryStat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func suite(runs int, seed int64, seconds float64, trace bool, workDir, out, spansOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynbench:", err)
		return 1
	}
	if trace {
		runs = 1
	}
	if spansOut != "" {
		if err := os.WriteFile(spansOut, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dynbench:", err)
			return 1
		}
	}
	sf := suiteFile{Schema: suiteSchema, Commit: runarchive.GitRev(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), Seconds: seconds, Trace: trace}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	status := 0
	order := append([]string(nil), dynbench.Workloads...)
	for run := 0; run < runs; run++ {
		for _, w := range order {
			s := seed + int64(run)
			args := []string{"-workload", w, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds),
				"-trace", traceArg, "-workdir", workDir, "-all"}
			if spansOut != "" {
				args = append(args, "-spans-out", spansOut)
			}
			r, err := child(exe, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dynbench: %s seed %d: %v\n", w, s, err)
				status = 1
				continue
			}
			if !r.Correct || r.Failed > 0 {
				status = 1
			}
			sf.Runs = append(sf.Runs, runRecord{Workload: w, Seed: s, result: r})
		}
		// Alternate the order so no workload always runs first or last.
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	sf.Summary = summarize(sf.Runs)
	fmt.Printf("\nsummary over %d run(s) per workload: median [q1, q3]\n", runs)
	for _, w := range dynbench.Workloads {
		ms := sf.Summary[w]
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			st := ms[k]
			fmt.Printf("  %-13s %-30s %14.6g [%.6g, %.6g] %s\n", w, k, st.Median, st.Q1, st.Q3, st.Unit)
		}
	}
	if out != "" {
		buf, err := json.MarshalIndent(sf, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynbench:", err)
			return 1
		}
	}
	return status
}

// child runs one (workload, seed) in a fresh process, so heap and peak
// RSS belong to that run alone, and parses its last output line. Its
// other output is passed through.
func child(exe string, args []string) (result, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	fmt.Println(text)
	var r result
	last := text[strings.LastIndexByte(text, '\n')+1:]
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		if runErr != nil {
			return r, runErr
		}
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}

// summarize gives each (workload, metric) its median and quartiles over
// runs.
func summarize(runs []runRecord) map[string]map[string]summaryStat {
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for k, m := range r.Metrics {
			vals[r.Workload][k] = append(vals[r.Workload][k], m.Value)
			units[k] = m.Unit
		}
	}
	out := map[string]map[string]summaryStat{}
	for w, ms := range vals {
		out[w] = map[string]summaryStat{}
		for k, xs := range ms {
			q1, med, q3 := dynbench.Quartiles(xs)
			out[w][k] = summaryStat{Unit: units[k], Median: med, Q1: q1, Q3: q3, N: len(xs)}
		}
	}
	return out
}

// readSuites loads one side of a comparison: a comma-separated list of
// suite files written with -out, whose runs are pooled.
func readSuites(paths string) (*suiteFile, error) {
	var all *suiteFile
	for _, path := range strings.Split(paths, ",") {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var sf suiteFile
		if err := json.Unmarshal(buf, &sf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if sf.Schema != suiteSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, sf.Schema, suiteSchema)
		}
		if all == nil {
			all = &sf
		} else {
			all.Runs = append(all.Runs, sf.Runs...)
		}
	}
	all.Summary = summarize(all.Runs)
	return all, nil
}

// benchBounds are the end-to-end metrics of BENCHMARK.json.
type benchBounds struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "file holding each end-to-end metric's bound and direction")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dynbench compare [-bench BENCHMARK.json] OLD.json[,OLD2.json...] NEW.json[,NEW2.json...]")
		return 2
	}
	buf, err := os.ReadFile(*benchPath)
	var bb benchBounds
	if err == nil {
		err = json.Unmarshal(buf, &bb)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynbench compare:", err)
		return 1
	}
	old, err := readSuites(fs.Arg(0))
	if err == nil {
		var neu *suiteFile
		if neu, err = readSuites(fs.Arg(1)); err == nil {
			return printComparison(os.Stdout, old, neu, bb, fs.Arg(0), fs.Arg(1))
		}
	}
	fmt.Fprintln(os.Stderr, "dynbench compare:", err)
	return 1
}
