package main

import (
	"flag"
	"fmt"
	"os"

	"dynamicmr"
)

// explainMain runs `dynmr explain`: execute one or more sampling
// queries on a freshly built cluster with tracing on, then run the
// post-run diagnosis engine and print each job's critical path, time
// breakdown and anomalies as text; `dynmr render diag-json` renders
// the same report as schema-stable JSON from the -archive-out file.
// The diagnosis invariants (critical path tiles the makespan;
// breakdown components sum to it) are checked before anything is
// printed; a violation exits non-zero, so the command doubles as an
// end-to-end validation of the trace stream.
func explainMain(args []string) {
	fs := flag.NewFlagSet("dynmr explain", flag.ExitOnError)
	rf := newRunFlags(fs)
	sf := newSampleFlags(fs, 1)
	spec := fs.Bool("speculative", false, "enable speculative execution for straggling maps")
	fs.Parse(args)
	if err := sf.check(); err != nil {
		usage(err)
	}

	opts := []dynamicmr.Option{dynamicmr.WithTracing()}
	if *spec {
		opts = append(opts, dynamicmr.WithSpeculativeExecution())
	}
	c, ds := rf.cluster(opts...)
	pred := ds.Predicate().String()
	for n := 0; n < sf.queries; n++ {
		sf.run(c, pred, n)
	}

	rep, err := c.Diagnose()
	if err != nil {
		fatal(err)
	}
	if err := rep.CheckInvariants(); err != nil {
		fatal(fmt.Errorf("diagnosis invariants violated: %w", err))
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	rf.finish(c, "dynmr explain — policy "+sf.policy, sf.config())
}
