package dynamicmr

import (
	"fmt"

	"dynamicmr/internal/qstats"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/tsdb"
)

// BuildArchive snapshots the run into a cross-run archive (schema
// dynamicmr.archive/1): every trace span, the policy decision audit
// log, the utilization timeline, the sampler's snapshots (after its
// last partial interval) when WithUtilizationSampling was on, the
// counters, the invariant-checked per-job diagnosis, the
// per-query registry dump when WithQueryStats was on, the time series
// and alert log when WithTimeSeries was on, and the run configuration.
// Fields of cfg the cluster knows better than the caller — input path,
// scan workers, git revision — are filled in when left zero. It requires WithTracing (or an option that forces it).
//
// The manifest is left unstamped (CreatedUnixMS 0), so two archives of
// one simulation are byte-identical; a caller that wants the write
// time sets Manifest.CreatedUnixMS before writing, as dynmr does.
//
// Two archives from twin runs feed Compare / `dynmr diff` to attribute
// a regression or a win component by component.
func (c *Cluster) BuildArchive(label string, cfg runarchive.RunConfig) (*runarchive.Archive, error) {
	tr := c.jt.Tracer()
	if !tr.Enabled() {
		return nil, fmt.Errorf("dynamicmr: BuildArchive requires WithTracing")
	}
	if cfg.InputPath == "" {
		// Full-scan stays the empty default so full-mode archive bytes
		// match pre-field archives exactly.
		if m := c.InputPath(); m != InputPathFull {
			cfg.InputPath = m
		}
	}
	if cfg.ScanWorkers == 0 {
		cfg.ScanWorkers = c.scanPool.Workers()
	}
	if cfg.GitRev == "" {
		cfg.GitRev = runarchive.GitRev()
	}
	snaps := c.sampler.Cut()
	var queries *qstats.Dump
	if c.qstats.Enabled() {
		d := c.qstats.Dump()
		queries = &d
	}
	var series *tsdb.Dump
	var alerts *tsdb.AlertsDump
	if c.tsdb.Enabled() {
		// A query finishing after the last scheduled tick (the clock
		// stops with it) would otherwise be missing from the series and
		// the slo_burn windows.
		c.tsdb.Flush()
		sd := c.tsdb.Dump()
		ad := c.tsdb.AlertsDump()
		series, alerts = &sd, &ad
	}
	return runarchive.New(runarchive.Source{
		Label:        label,
		Tracer:       tr,
		Snapshots:    snaps,
		Queries:      queries,
		Series:       series,
		Alerts:       alerts,
		VirtualTimeS: c.eng.Now(),
		Config:       cfg,
	})
}
