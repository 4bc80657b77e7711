package experiments

import (
	"os"
	"path/filepath"

	"dynamicmr/internal/obs"
)

// writeCellReport renders one cell's self-contained HTML observability
// report into opt.ReportDir (no-op when reporting is off), with the
// rig's per-query and alert sections when it is alerting. The sampler
// carries the cell's private tracer, so concurrent cells write fully
// independent reports.
func writeCellReport(opt Options, r *rig, name, title string, samp *obs.Sampler, params [][2]string) error {
	if opt.ReportDir == "" || samp == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(opt.ReportDir, name+".html"))
	if err != nil {
		return err
	}
	if err := obs.NewReport(title, samp, r.qs, r.db, params).WriteHTML(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
