package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"dynamicmr/internal/runarchive"
)

// renderMain runs `dynmr render KIND ARCHIVE`: write one view of a run
// archive (schema dynamicmr.archive/1, from -archive-out) to stdout —
// the per-query stats or alert dump, the job diagnosis as text, JSON
// or CSV, a Chrome trace, the utilization timeline CSV or the HTML run
// report (see runarchive.Archive.Render). It takes no flags: every
// view of a run is regenerated offline from its archive.
func renderMain(args []string) {
	if len(args) != 2 {
		fmt.Fprintf(os.Stderr, "usage: dynmr render %s ARCHIVE\n", strings.Join(runarchive.RenderKinds, "|"))
		os.Exit(2)
	}
	a, err := runarchive.LoadFile(args[1])
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	if err := a.Render(w, args[0]); err != nil {
		fatal(err)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}
