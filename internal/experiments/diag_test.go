package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dynamicmr/internal/core"
	"dynamicmr/internal/runarchive"
)

// checkDiagCSV loads one cell's archive from dir, renders its per-job
// diagnosis CSV the way `dynmr render diag-csv` does, and verifies the
// breakdown property on every job row: the nine breakdown components
// sum to the makespan (runarchive.New already enforced the full
// invariant set in-process; this re-checks it from the rendered file
// the way a downstream consumer would read it). Returns the number of
// job rows.
func checkDiagCSV(t *testing.T, dir, cell string) int {
	t.Helper()
	a, err := runarchive.LoadFile(filepath.Join(dir, cell+".archive.gz"))
	if err != nil {
		t.Fatalf("cell archive: %v", err)
	}
	var buf bytes.Buffer
	if err := a.Render(&buf, "diag-csv"); err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	if len(recs) < 2 {
		t.Fatalf("%s has no job rows (the cell finished no jobs?)", cell)
	}
	if recs[0][0] != "job" || recs[0][4] != "makespan_s" || recs[0][14] != "path_nodes" {
		t.Fatalf("%s header wrong: %v", cell, recs[0])
	}
	num := func(row []string, i int) float64 {
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("%s: column %d not numeric: %v", cell, i, err)
		}
		return v
	}
	for r, row := range recs[1:] {
		makespan := num(row, 4)
		if makespan <= 0 {
			t.Errorf("%s row %d: non-positive makespan %g", cell, r, makespan)
		}
		sum := 0.0
		for i := 5; i <= 13; i++ { // slot_wait_s .. untraced_s
			sum += num(row, i)
		}
		if tol := 1e-6 * makespan; sum < makespan-tol || sum > makespan+tol {
			t.Errorf("%s row %d: breakdown sums to %g, makespan %g", cell, r, sum, makespan)
		}
		if num(row, 14) <= 0 {
			t.Errorf("%s row %d: empty critical path", cell, r)
		}
	}
	return len(recs) - 1
}

// TestFigure5DiagDir: every figure-5 cell archive renders a diagnosis
// CSV whose breakdowns sum to the makespan; cells run in parallel so
// this also exercises per-cell tracer isolation under -race.
func TestFigure5DiagDir(t *testing.T) {
	opt := tinyOptions()
	opt.Scales = []int{2}
	opt.Policies = []string{core.PolicyLA, core.PolicyHadoop}
	opt.ArchiveDir = t.TempDir()
	opt.Parallelism = 4
	if _, err := Figure5(opt); err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{0, 1, 2} {
		for _, pol := range opt.Policies {
			n := checkDiagCSV(t, opt.ArchiveDir, fmt.Sprintf("figure5_z%g_2x_%s", z, pol))
			if n != 1 {
				t.Errorf("figure5 z=%g %s: want 1 diagnosed job, got %d", z, pol, n)
			}
		}
	}
}

// TestFigure6DiagDir covers the multi-user cells: many jobs per cell,
// every one satisfying the breakdown invariant.
func TestFigure6DiagDir(t *testing.T) {
	opt := tinyOptions()
	opt.Policies = []string{core.PolicyLA}
	opt.ArchiveDir = t.TempDir()
	if _, err := Figure6(opt); err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{0, 2} {
		checkDiagCSV(t, opt.ArchiveDir, fmt.Sprintf("figure6_z%g_LA", z))
	}
}

// TestFigure7And8DiagDir covers the heterogeneous cells under both
// schedulers (figure 8 adds the Fair Scheduler).
func TestFigure7And8DiagDir(t *testing.T) {
	opt := tinyOptions()
	opt.Policies = []string{core.PolicyLA}
	opt.SamplingFractions = []float64{0.5}
	opt.ArchiveDir = t.TempDir()
	if _, err := Figure7(opt); err != nil {
		t.Fatal(err)
	}
	checkDiagCSV(t, opt.ArchiveDir, "figure7_frac0.5_LA")

	if _, err := Figure8(opt); err != nil {
		t.Fatal(err)
	}
	checkDiagCSV(t, opt.ArchiveDir, "figure8_frac0.5_LA")
}

// TestWriteCellArchiveRequiresTracing: asking for an archive (and with
// it the cell's diagnosis) of an untraced cell is a loud error, not an
// empty file: Cluster.BuildArchive refuses, and no file is written.
func TestWriteCellArchiveRequiresTracing(t *testing.T) {
	opt := tinyOptions()
	opt.ArchiveDir = t.TempDir()
	sh := opt.newSweepShared()
	defer sh.close()
	c, err := sh.cluster() // untraced
	if err != nil {
		t.Fatal(err)
	}
	err = opt.archive(c, "untraced_cell", runarchive.RunConfig{})
	if err == nil || !strings.Contains(err.Error(), "BuildArchive requires WithTracing") {
		t.Fatalf("archive of an untraced cell: err %v, want BuildArchive's tracing error", err)
	}
	if _, err := os.Stat(filepath.Join(opt.ArchiveDir, "untraced_cell.archive.gz")); !os.IsNotExist(err) {
		t.Fatalf("archive file written for an untraced cell: %v", err)
	}
}
