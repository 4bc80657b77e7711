package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dynamicmr/internal/diag"
	"dynamicmr/internal/obs"
	"dynamicmr/internal/runarchive"
)

// diffMain runs `dynmr diff A B`: load two run archives (written with
// -archive-out), align their jobs by query ID (falling back to job
// ID), and render the cross-run comparison — per-component breakdown
// deltas that sum to the makespan delta, the first divergent provider
// decision, critical-path and anomaly differences — as text by
// default, JSON (schema dynamicmr.diff/1) with -json, or a
// side-by-side HTML page in the run report's style with -html. The delta-sum invariant is
// re-checked before rendering; a violation exits non-zero.
func diffMain(args []string) {
	fs := flag.NewFlagSet("dynmr diff", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the diff as JSON (schema "+diag.DiffSchemaVersion+") instead of text")
	htmlOut := fs.Bool("html", false, "emit a side-by-side HTML report (paired breakdown stacks, aligned Gantts)")
	out := fs.String("out", "", "write the diff to FILE instead of stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dynmr diff [-json | -html] [-out FILE] A.archive.gz B.archive.gz\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	if *jsonOut && *htmlOut {
		fatal(fmt.Errorf("diff: -json and -html are mutually exclusive"))
	}
	a, err := runarchive.LoadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	b, err := runarchive.LoadFile(fs.Arg(1))
	if err != nil {
		fatal(err)
	}
	rep, err := runarchive.Compare(a, b)
	if err != nil {
		fatal(err)
	}
	if err := rep.CheckInvariants(); err != nil {
		fatal(fmt.Errorf("diff invariants violated: %w", err))
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	switch {
	case *jsonOut:
		err = rep.WriteJSON(w)
	case *htmlOut:
		err = obs.WriteDiffHTML(w, rep)
	default:
		err = rep.WriteText(w)
	}
	if err != nil {
		fatal(err)
	}
}
