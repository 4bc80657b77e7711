package experiments

import (
	"fmt"
	"path/filepath"

	"dynamicmr/internal/qstats"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/tsdb"
)

// writeCellArchive snapshots one cell's trace into a cross-run archive
// (<name>.archive.gz, schema dynamicmr.archive/1) in opt.ArchiveDir;
// no-op when archiving is off. The archive carries the cell's per-job
// diagnosis, invariant-checked by runarchive.New so a cell that
// violates them fails its sweep loudly (`dynmr render diag-csv` turns
// it into the per-job breakdown CSV), and the sampler's snapshots, cut
// after its last partial interval (`dynmr render report` charts them).
// When the sweep is alerting, the cell's per-query stats, time-series
// dump and alert log ride along (`dynmr render qstats`, `dynmr render
// alerts`, the report's per-query and alert sections), so `dynmr diff`
// between two sweeps aligns jobs by query and attributes alert-set
// differences too. The manifest is left unstamped (CreatedUnixMS 0) so
// a cell's archive bytes are deterministic across reruns, matching the
// sweep's byte-identical output contract — two archives of the same
// cell differ only where the runs truly differed.
func writeCellArchive(opt Options, name string, r *rig, cfg runarchive.RunConfig) error {
	if opt.ArchiveDir == "" {
		return nil
	}
	tr := r.jt.Tracer()
	if !tr.Enabled() {
		return fmt.Errorf("experiments: archive requested but cell %s ran untraced", name)
	}
	cfg.ScanWorkers = opt.ScanWorkers
	cfg.Seed = opt.Seed
	if cfg.GitRev == "" {
		cfg.GitRev = runarchive.GitRev()
	}
	// The cell's clock stopped with its last job, between ticks: the
	// sampler takes the tail interval before the tsdb flush folds the
	// gauges it publishes.
	snaps := r.samp.Cut()
	var queries *qstats.Dump
	if r.qs.Enabled() {
		d := r.qs.Dump()
		queries = &d
	}
	var series *tsdb.Dump
	var alerts *tsdb.AlertsDump
	if r.db.Enabled() {
		// The cell's clock stopped with its last job, after the last
		// scheduled tick — flush so that job reaches the series and the
		// slo_burn windows.
		r.db.Flush()
		sd := r.db.Dump()
		ad := r.db.AlertsDump()
		series, alerts = &sd, &ad
	}
	a, err := runarchive.New(runarchive.Source{
		Label:        name,
		Tracer:       tr,
		Snapshots:    snaps,
		Queries:      queries,
		Series:       series,
		Alerts:       alerts,
		VirtualTimeS: r.jt.Engine().Now(),
		Config:       cfg,
	})
	if err != nil {
		return fmt.Errorf("experiments: archive (%s): %w", name, err)
	}
	return a.WriteFile(filepath.Join(opt.ArchiveDir, name+".archive.gz"))
}
