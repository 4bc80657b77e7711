// Package runflags is the one set of run flags the dynmr and
// experiments binaries share: the map tasks' input path and the output
// files a run writes. It registers the flags, validates them and opens
// their outputs once, before any run starts, with one exit-code rule:
// 2 for a bad flag value, 1 for an I/O error.
package runflags

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/tsdb"
	"dynamicmr/internal/vlog"
)

// Flags holds the run flags' values.
type Flags struct {
	InputPath  string
	ArchiveOut string
	AlertRules string
	LogOut     string
	LogLevel   string
	// perCell makes ArchiveOut a directory of per-cell files rather
	// than a single file.
	perCell bool
}

// Register registers the run flags on fs. With perCell, -archive-out
// names a directory that receives one archive per sweep cell
// (experiments); otherwise it names one file written at exit (dynmr).
func Register(fs *flag.FlagSet, perCell bool) *Flags {
	f := &Flags{perCell: perCell}
	archive, clock := "the run archive to FILE at exit", "the virtual clock"
	if perCell {
		archive, clock = "one run archive per figure 5-8 cell into DIR", "every cell's virtual clock"
	}
	fs.StringVar(&f.InputPath, "input-path", mapreduce.InputPathFull, "map-task read path: full (every block read), skip (zone-map skip-scan) or index (clustered-index reads + informed grab ordering)")
	fs.StringVar(&f.ArchiveOut, "archive-out", "", "write "+archive+" (dynamicmr.archive/1 gzip NDJSON; view with `dynmr render`, including the HTML report, compare with `dynmr diff`)")
	fs.StringVar(&f.AlertRules, "alert-rules", "", "load declarative alert/SLO rules from FILE (JSON {\"rules\": [...]}) and evaluate them on "+clock)
	fs.StringVar(&f.LogOut, "log-out", "", "write the virtual-clock NDJSON log stream to FILE")
	fs.StringVar(&f.LogLevel, "log-level", "info", "log level for -log-out: debug, info, warn or error")
	return f
}

// Outputs is what Open loaded and opened for the run.
type Outputs struct {
	// Rules are the parsed -alert-rules; nil without the flag.
	Rules []tsdb.Rule
	// Log is the created -log-out file, nil without the flag; the
	// caller closes it.
	Log      *os.File
	LogLevel slog.Level
}

// Open validates the flags and opens their outputs: it checks the
// input path, parses the log level, reads and parses the rules file,
// creates the archive directory (for a per-file flag, the file's
// directory) and creates the log file, in that order, so a rejected
// flag leaves nothing behind. ExitCode maps its error to the exit
// status.
func (f *Flags) Open() (*Outputs, error) {
	if !mapreduce.ValidInputPath(f.InputPath) {
		return nil, usageError{fmt.Errorf("unknown -input-path %q (want full, skip or index)", f.InputPath)}
	}
	level, err := vlog.ParseLevel(f.LogLevel)
	if err != nil {
		return nil, usageError{fmt.Errorf("-log-level: %w", err)}
	}
	out := &Outputs{LogLevel: level}
	if f.AlertRules != "" {
		// A typoed rule must not silently disable alerting.
		data, err := os.ReadFile(f.AlertRules)
		if err != nil {
			return nil, fmt.Errorf("-alert-rules: %w", err)
		}
		if out.Rules, err = tsdb.ParseRules(data); err != nil {
			return nil, usageError{fmt.Errorf("-alert-rules %s: %w", f.AlertRules, err)}
		}
	}
	if f.ArchiveOut != "" {
		dir := f.ArchiveOut
		if !f.perCell {
			dir = filepath.Dir(dir)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	if f.LogOut != "" {
		if out.Log, err = os.Create(f.LogOut); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// usageError marks a bad flag value, as opposed to an I/O failure.
type usageError struct{ error }

// ExitCode returns the exit status for an Open error: 2 for a bad flag
// value, 1 for anything else (an I/O error).
func ExitCode(err error) int {
	var u usageError
	if errors.As(err, &u) {
		return 2
	}
	return 1
}
