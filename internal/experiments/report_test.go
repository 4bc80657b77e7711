package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynamicmr/internal/core"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/tsdb"
)

// cellReport loads the named cell archive from dir, requires sampler
// snapshots in it, and renders its HTML report, which must be a
// complete document with the utilization charts. A Write → Load round
// trip of the archive must render the same bytes.
func cellReport(t *testing.T, dir, name string) string {
	t.Helper()
	a, err := runarchive.LoadFile(filepath.Join(dir, name+".archive.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Snapshots) == 0 || a.Manifest.Counts.Snapshots != len(a.Snapshots) {
		t.Fatalf("%s: %d snapshots, manifest counts %d", name, len(a.Snapshots), a.Manifest.Counts.Snapshots)
	}
	var html bytes.Buffer
	if err := a.Render(&html, "report"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "</html>", "<svg", "Cluster utilization", "Slot occupancy"} {
		if !strings.Contains(html.String(), want) {
			t.Fatalf("%s report missing %q", name, want)
		}
	}
	var buf, again bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := runarchive.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Render(&again, "report"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(html.Bytes(), again.Bytes()) {
		t.Fatalf("%s: report changed across a Write → Load round trip", name)
	}
	return html.String()
}

// TestFigure5ArchiveReports: archiving writes one archive per cell
// whose report renders, and leaves every measured result exactly equal
// to a plain run's: the sampler ticking every 2 s reads the cluster
// passively. Cells run in parallel, so this doubles as a -race check
// on per-cell tracer and sampler isolation.
func TestFigure5ArchiveReports(t *testing.T) {
	opt := tinyOptions()
	opt.Scales = []int{2}
	opt.Policies = []string{core.PolicyLA, core.PolicyHadoop}

	plain, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}

	opt.ArchiveDir = t.TempDir()
	opt.Parallelism = 4
	archived, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{0, 1, 2} {
		for _, pol := range opt.Policies {
			cellReport(t, opt.ArchiveDir, fmt.Sprintf("figure5_z%g_2x_%s", z, pol))
		}
	}
	for i := range plain.Cells {
		if plain.Cells[i] != archived.Cells[i] {
			t.Errorf("cell %d drifted with archiving on:\nplain    %+v\narchived %+v", i, plain.Cells[i], archived.Cells[i])
		}
	}
}

// TestFigure6ArchiveReports: workload cell archives (named after the
// cell) render their report and their utilization timeline CSV with at
// least one row.
func TestFigure6ArchiveReports(t *testing.T) {
	opt := tinyOptions()
	opt.Policies = []string{core.PolicyLA}
	opt.ArchiveDir = t.TempDir()
	if _, err := Figure6(opt); err != nil {
		t.Fatal(err)
	}
	for _, z := range []float64{0, 2} {
		name := fmt.Sprintf("figure6_z%g_LA", z)
		cellReport(t, opt.ArchiveDir, name)
		a, err := runarchive.LoadFile(filepath.Join(opt.ArchiveDir, name+".archive.gz"))
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

// TestFigure5AlertingReportSections: an alerting cell's rendered report
// carries the per-query and alert sections.
func TestFigure5AlertingReportSections(t *testing.T) {
	opt := tinyOptions()
	opt.Scales = []int{2}
	opt.Policies = []string{core.PolicyLA}
	opt.ArchiveDir = t.TempDir()
	opt.AlertRules = []tsdb.Rule{{Name: "latency-slo", Kind: tsdb.KindSLOBurn, ObjectiveS: 0.001, Severity: "page"}}
	if _, err := Figure5(opt); err != nil {
		t.Fatal(err)
	}
	html := cellReport(t, opt.ArchiveDir, "figure5_z1_2x_LA")
	for _, section := range []string{"<h2>Per-query stats", "<h2>Alerts</h2>", "latency-slo"} {
		if !strings.Contains(html, section) {
			t.Errorf("report lacks %q", section)
		}
	}
}

// TestFigure7ArchiveReport covers the heterogeneous naming scheme.
func TestFigure7ArchiveReport(t *testing.T) {
	opt := tinyOptions()
	opt.Policies = []string{core.PolicyLA}
	opt.SamplingFractions = []float64{0.5}
	opt.ArchiveDir = t.TempDir()
	if _, err := Figure7(opt); err != nil {
		t.Fatal(err)
	}
	cellReport(t, opt.ArchiveDir, "figure7_frac0.5_LA")
}

// TestFigure7CellUnchangedByArchiving: the quick figure-7 cell at
// sampling fraction 0.8 under LA, where a sampler that settled the
// network it read moved throughput, locality and occupancy, measures
// the same with its archive's sampler on as without, and with an alert
// engine and query registry added on top.
func TestFigure7CellUnchangedByArchiving(t *testing.T) {
	opt := QuickOptions()
	opt.Policies = []string{core.PolicyLA}
	opt.SamplingFractions = []float64{0.8}
	plain, err := Figure7(opt)
	if err != nil {
		t.Fatal(err)
	}
	rules := []tsdb.Rule{{Name: "latency-slo", Kind: tsdb.KindSLOBurn, ObjectiveS: 0.001, Severity: "page"}}
	for _, v := range []struct {
		name  string
		rules []tsdb.Rule
	}{{"archived", nil}, {"archived+alerting", rules}} {
		opt.ArchiveDir = t.TempDir()
		opt.AlertRules = v.rules
		got, err := Figure7(opt)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Cells[0] != got.Cells[0] {
			t.Fatalf("%s moved the cell:\nplain %+v\n%s %+v", v.name, plain.Cells[0], v.name, got.Cells[0])
		}
		for i, tab := range got.Tables() {
			if want := plain.Tables()[i].Render(); tab.Render() != want {
				t.Fatalf("%s table %d:\n%s\nwant\n%s", v.name, i, tab.Render(), want)
			}
		}
		cellReport(t, opt.ArchiveDir, "figure7_frac0.8_LA")
	}
}

// TestCellArchivesDeterministic: two archived runs of one figure-5 and
// one figure-6 cell write the same bytes, unstamped (CreatedUnixMS 0),
// and a full-scan cell's manifest carries no input path.
func TestCellArchivesDeterministic(t *testing.T) {
	cells := []struct {
		name string
		run  func(Options, *sweepShared) error
	}{
		{"figure5_z1_2x_LA", func(opt Options, sh *sweepShared) error {
			_, err := figure5Cell(opt, sh, core.DefaultRegistry(), 1, 2, core.PolicyLA)
			return err
		}},
		{"figure6_z2_LA", func(opt Options, sh *sweepShared) error {
			_, _, err := figure6Cell(opt, sh, 2, core.PolicyLA)
			return err
		}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			var runs [2][]byte
			for i := range runs {
				opt := tinyOptions()
				opt.ArchiveDir = t.TempDir()
				sh := opt.newSweepShared()
				if err := c.run(opt, sh); err != nil {
					t.Fatal(err)
				}
				sh.close()
				path := filepath.Join(opt.ArchiveDir, c.name+".archive.gz")
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = b
				a, err := runarchive.LoadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if m := a.Manifest; m.CreatedUnixMS != 0 || m.Config.InputPath != "" {
					t.Fatalf("manifest stamped %d, input path %q; want 0 and none", m.CreatedUnixMS, m.Config.InputPath)
				}
			}
			if !bytes.Equal(runs[0], runs[1]) {
				t.Fatal("two archived runs of the cell wrote different bytes")
			}
		})
	}
}

// TestSkipCellArchiveRecordsInputPath: a cell swept with a non-full
// input path says so in its archive's manifest, so `dynmr render
// report` and `dynmr diff` do not present it as a full scan.
func TestSkipCellArchiveRecordsInputPath(t *testing.T) {
	opt := tinyOptions()
	opt.InputPath = mapreduce.InputPathSkip
	opt.ArchiveDir = t.TempDir()
	sh := opt.newSweepShared()
	defer sh.close()
	if _, err := figure5Cell(opt, sh, core.DefaultRegistry(), 1, 2, core.PolicyLA); err != nil {
		t.Fatal(err)
	}
	a, err := runarchive.LoadFile(filepath.Join(opt.ArchiveDir, "figure5_z1_2x_LA.archive.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Manifest.Config.InputPath; got != mapreduce.InputPathSkip {
		t.Fatalf("manifest input path %q, want %q", got, mapreduce.InputPathSkip)
	}
}
