package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynamicmr/internal/core"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/tsdb"
)

// checkReport fails unless the named report exists, is non-trivial, and
// looks like a complete HTML document with at least one chart.
func checkReport(t *testing.T, dir, name string) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("report missing: %v", err)
	}
	s := string(buf)
	if len(s) < 1024 {
		t.Fatalf("%s suspiciously small (%d bytes)", name, len(s))
	}
	for _, want := range []string{"<!DOCTYPE html>", "</html>", "<svg"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%s missing %q", name, want)
		}
	}
}

// TestFigure5ReportDir: reporting writes one HTML report per cell and
// leaves the measured results (tracing on) within float-accrual noise
// of a plain run. Cells run in parallel, so this doubles as a -race
// check on per-cell tracer and sampler isolation.
func TestFigure5ReportDir(t *testing.T) {
	opt := tinyOptions()
	opt.Scales = []int{2}
	opt.Policies = []string{core.PolicyLA, core.PolicyHadoop}

	plain, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}

	opt.ReportDir = t.TempDir()
	opt.Parallelism = 4
	rep, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{0, 1, 2} {
		for _, pol := range opt.Policies {
			checkReport(t, opt.ReportDir, fmt.Sprintf("figure5_z%g_2x_%s.html", z, pol))
		}
	}

	// Tracing subdivides shared-resource accrual, so allow float noise
	// but nothing qualitative.
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }
	for i := range plain.Cells {
		p, r := plain.Cells[i], rep.Cells[i]
		if !close(p.ResponseS, r.ResponseS) || !close(p.PartitionsProcessed, r.PartitionsProcessed) ||
			!close(p.SampleSize, r.SampleSize) {
			t.Errorf("cell %d drifted with reporting on:\nplain %+v\nreport %+v", i, p, r)
		}
	}
}

// TestFigure6ReportDir: workload cells write reports too (named after
// the cell), and each cell's archive renders its utilization timeline
// CSV with at least one row.
func TestFigure6ReportDir(t *testing.T) {
	opt := tinyOptions()
	opt.Policies = []string{core.PolicyLA}
	opt.ReportDir = t.TempDir()
	opt.ArchiveDir = opt.ReportDir
	if _, err := Figure6(opt); err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{0, 2} {
		checkReport(t, opt.ReportDir, fmt.Sprintf("figure6_z%g_LA.html", z))
		a, err := runarchive.LoadFile(filepath.Join(opt.ArchiveDir, fmt.Sprintf("figure6_z%g_LA.archive.gz", z)))
		if err != nil {
			t.Fatal(err)
		}
		var csv strings.Builder
		if err := a.Render(&csv, "timeline"); err != nil {
			t.Fatal(err)
		}
		if rows := strings.Count(csv.String(), "\n") - 1; rows < 1 {
			t.Fatalf("z=%g timeline has no rows:\n%s", z, csv.String())
		}
	}
}

// TestFigure5AlertingReportSections: an alerting cell's report carries
// the per-query and alert sections, as dynmr's -report-out does.
func TestFigure5AlertingReportSections(t *testing.T) {
	opt := tinyOptions()
	opt.Scales = []int{2}
	opt.Policies = []string{core.PolicyLA}
	opt.ReportDir = t.TempDir()
	opt.AlertRules = []tsdb.Rule{{Name: "latency-slo", Kind: tsdb.KindSLOBurn, ObjectiveS: 0.001, Severity: "page"}}
	if _, err := Figure5(opt); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(opt.ReportDir, "figure5_z1_2x_LA.html"))
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"<h2>Per-query stats", "<h2>Alerts</h2>", "latency-slo"} {
		if !strings.Contains(string(buf), section) {
			t.Errorf("report lacks %q", section)
		}
	}
}

// TestFigure7ReportDir covers the heterogeneous naming scheme.
func TestFigure7ReportDir(t *testing.T) {
	opt := tinyOptions()
	opt.Policies = []string{core.PolicyLA}
	opt.SamplingFractions = []float64{0.5}
	opt.ReportDir = t.TempDir()
	if _, err := Figure7(opt); err != nil {
		t.Fatal(err)
	}
	checkReport(t, opt.ReportDir, "figure7_frac0.5_LA.html")
}
