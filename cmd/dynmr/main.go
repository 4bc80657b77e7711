// Command dynmr is a Hive-CLI-style shell against a simulated cluster
// with a generated LINEITEM table: type HiveQL (SELECT/SET/EXPLAIN/
// SHOW TABLES/DESCRIBE), watch dynamic jobs grow incrementally, and
// compare policies interactively.
//
// Usage:
//
//	dynmr [run flags] [-e "SQL"] [-maxrows N] [-trace]
//	dynmr serve [run flags] [-addr HOST:PORT] [-policy NAME] [-k N] [-queries N]
//	      [-pace-ms MS] [-pprof]
//	dynmr explain [run flags] [-policy NAME] [-k N] [-queries N] [-speculative]
//	dynmr render qstats|alerts|diag|diag-json|diag-csv|chrome|timeline|report A.archive.gz
//	dynmr top [-addr HOST:PORT] [-follow] [-interval-ms MS]
//	dynmr diff [-json | -html] [-out FILE] A.archive.gz B.archive.gz
//
// The shell, serve and explain modes share one set of run flags:
//
//	[-scale N] [-skew 0|1|2] [-rows N] [-multiuser] [-fair]
//	[-input-path full|skip|index] [-archive-out FILE]
//	[-alert-rules FILE] [-log-out FILE] [-log-level LEVEL]
//
// The last five are the run flags cmd/experiments shares
// (internal/runflags). All of them are checked before anything runs: a
// bad value (a -scale below 1, a -skew other than 0, 1 or 2, a
// negative -rows, an unknown -input-path...) exits 2, an I/O error 1.
// serve and explain check their sampling flags the same way: -k must
// be at least 1, -policy a Table I name or adaptive (case-insensitive)
// and -queries not negative.
//
// Without -e, statements are read from stdin (one per line, ';'
// optional). With -archive-out, the run archive (schema
// dynamicmr.archive/1, gzip NDJSON: trace spans, policy decisions,
// utilization samples, the utilization sampler's per-node snapshots,
// diagnoses, query stats, counters, the time series and alert
// log when -alert-rules is set, and the run config) is written at
// exit. It is the one output file every view renders from:
// `dynmr render KIND ARCHIVE` writes the per-query stats dump (qstats,
// schema dynamicmr.qstats/1), the alert dump (alerts,
// dynamicmr.alerts/1), the job diagnosis as text, JSON or CSV (diag,
// diag-json, diag-csv), a Chrome trace-event file (chrome; load it in
// https://ui.perfetto.dev or chrome://tracing), the utilization
// timeline as CSV (timeline) or a self-contained HTML run report
// (report: utilization time-series, slot-occupancy Gantt, policy
// decision log) to stdout. With -log-out, the runtime's structured log
// stream (job lifecycle, Input Provider decisions, query execution) is
// written as NDJSON, each record stamped with the virtual clock. With
// -alert-rules, declarative alert/SLO rules are evaluated on the
// virtual clock while statements run.
//
// The serve subcommand runs a paced loop of sampling queries while
// exposing live observability over HTTP: Prometheus text exposition on
// /metrics, JSON run status on /status, the per-query registry on
// /queries (schema dynamicmr.qstats/1; ?id=q-000001 for one record)
// and a self-refreshing HTML dashboard on /live (plus net/http/pprof
// under /debug/pprof/ with -pprof). SIGINT/SIGTERM shut it down
// gracefully through the same exit flush as the other modes.
//
// The top subcommand renders a text view of a running serve instance
// from its /status and /queries endpoints; -follow refreshes it like
// top(1).
//
// The explain subcommand runs sampling queries with tracing on and
// prints the post-run job diagnosis: per-job critical path, time
// breakdown and anomalies.
//
// The diff subcommand compares two run archives: jobs are aligned by
// query ID, the nine-component time breakdowns are differenced (the
// per-component deltas sum to the makespan delta by construction), and
// the first divergent provider decision between twin runs is located.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dynamicmr"
	"dynamicmr/internal/hive"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/runarchive"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "top":
			topMain(os.Args[2:])
			return
		case "explain":
			explainMain(os.Args[2:])
			return
		case "diff":
			diffMain(os.Args[2:])
			return
		case "render":
			renderMain(os.Args[2:])
			return
		}
	}
	rf := newRunFlags(flag.CommandLine)
	exec := flag.String("e", "", "execute this statement and exit")
	maxRows := flag.Int("maxrows", 20, "result rows to print")
	eventLog := flag.Bool("trace", false, "print the task-level event log for each job")
	flag.Parse()

	c, ds := rf.cluster()
	if *eventLog {
		c.JobTracker().Subscribe(func(e mapreduce.TaskEvent) {
			fmt.Fprintln(os.Stderr, e)
		})
	}
	fmt.Printf("loaded table lineitem: %d rows, %d partitions, %d records matching %s\n",
		ds.TotalRows(), ds.NumPartitions(), ds.TotalMatches(), ds.Predicate())
	fmt.Printf("policies: %s (SET dynamic.job.policy = <name>)\n\n", strings.Join(c.Policies().Names(), ", "))

	if *exec != "" {
		runStatement(c, *exec, os.Stdout, os.Stderr, *maxRows)
	} else {
		shell(c, os.Stdin, os.Stdout, os.Stderr, *maxRows)
	}
	rf.finish(c, "dynmr session", runarchive.RunConfig{})
}

// shell runs the statements of in, one a line, after a prompt each. A
// statement that fails prints its error and the session goes on.
func shell(c *dynamicmr.Cluster, in io.Reader, out, errOut io.Writer, maxRows int) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(out, "dynmr> ")
	for sc.Scan() {
		runStatement(c, sc.Text(), out, errOut, maxRows)
		fmt.Fprint(out, "dynmr> ")
	}
}

// runStatement executes one statement, a trailing semicolon allowed, and
// prints its result to out or its error to errOut.
func runStatement(c *dynamicmr.Cluster, sql string, out, errOut io.Writer, maxRows int) {
	sql = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
	if sql == "" {
		return
	}
	res, err := c.Query(sql)
	if err != nil {
		fmt.Fprintf(errOut, "error: %v\n", err)
		return
	}
	printResult(out, c, res, maxRows)
}

func printResult(w io.Writer, c *dynamicmr.Cluster, res *hive.Result, maxRows int) {
	switch res.Kind {
	case hive.ResultOK:
		fmt.Fprintf(w, "OK (%s)\n", res.Text)
	case hive.ResultText:
		fmt.Fprintln(w, res.Text)
	case hive.ResultRows:
		fmt.Fprintln(w, strings.Join(res.Columns, " | "))
		for i, r := range res.Rows {
			if i >= maxRows {
				fmt.Fprintf(w, "... (%d more rows)\n", len(res.Rows)-maxRows)
				break
			}
			fmt.Fprintln(w, r.String())
		}
		job := res.Job
		fmt.Fprintf(w, "-- %d row(s); response time %.2fs (virtual); %d/%d partitions processed",
			len(res.Rows), job.ResponseTime(), job.CompletedMaps(), job.ScheduledMaps())
		if res.Client != nil {
			fmt.Fprintf(w, "; policy %s, %d provider evaluations", res.Client.Policy().Name, res.Client.Evaluations())
		}
		fmt.Fprintf(w, "; cluster clock %.2fs\n", c.Now())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dynmr:", err)
	os.Exit(1)
}
