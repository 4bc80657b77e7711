package experiments

import (
	"fmt"
	"io"
	"log/slog"

	"dynamicmr/internal/core"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/tpch"
	"dynamicmr/internal/tsdb"
)

// Options scales an experiment run. DefaultOptions reproduces the
// paper's setup; QuickOptions shrinks datasets and windows roughly an
// order of magnitude so the whole suite runs in seconds (used by
// `go test -bench` and CI), preserving every qualitative shape.
type Options struct {
	// Scales are the dataset scale factors for Figure 5.
	Scales []int
	// Runs averages each Figure 5 cell over this many runs (paper: 5).
	Runs int
	// SampleK is the required sample size (paper: 10 000).
	SampleK int64
	// Selectivity of the planted predicates (paper: 0.05% = 0.0005).
	Selectivity float64
	// RowsPerScaleOverride, when > 0, substitutes for the TPC-H 6M
	// rows/scale (quick mode).
	RowsPerScaleOverride int64
	// WorkloadRowsPerScaleOverride, when > 0, applies to the multi-user
	// datasets (Figures 6-8) instead of RowsPerScaleOverride. The
	// multi-user contention effects require partitions to stay
	// I/O-dominated, so quick configurations shrink the partition count
	// (via WorkloadScale) but not the per-partition volume.
	WorkloadRowsPerScaleOverride int64
	// Users is the multi-user workload size (paper: 10).
	Users int
	// WarmupS and MeasureS bound workload runs.
	WarmupS  float64
	MeasureS float64
	// WorkloadScale is the dataset scale for Figures 6–8 (paper: 100).
	WorkloadScale int
	// SamplingFractions for Figures 7–8 (paper: 0.2–0.8).
	SamplingFractions []float64
	// Policies to evaluate (default: all of Table I).
	Policies []string
	// Seed makes the whole experiment deterministic.
	Seed int64
	// Parallelism bounds how many sweep cells run concurrently (the
	// cmd/experiments -j flag); 0 or 1 means sequential. Each cell owns
	// a private dynamicmr.Cluster and results are assembled in
	// enumeration order, so tables and CSVs are byte-identical at any
	// setting — parallelism is across cells, virtual time inside a cell
	// is untouched.
	Parallelism int
	// ArchiveDir, when set, enables tracing and the obs sampler in
	// every figure cell's cluster and writes one cross-run archive per
	// cell, cut by Cluster.BuildArchive (figure5_*.archive.gz, ...;
	// schema dynamicmr.archive/1) capturing the cell's spans, policy
	// decisions, utilization samples and per-node snapshots, diagnoses,
	// counters, query stats and alert log (with AlertRules) and
	// run config, for `dynmr render` views (the HTML report among them)
	// and `dynmr diff` regression attribution between sweeps. The
	// sampler ticks every 2 s in figure 5's final run and every 30 s in
	// figures 6-8; it never moves a cell's virtual timeline, so tables
	// stay byte-identical. Diagnosis invariants (breakdown sums to
	// makespan) are checked on every cell; a violation fails the sweep.
	// The directory must exist. Archives are unstamped, so a cell's
	// bytes are deterministic across reruns (with AlertRules, but for
	// the query stats' wall-clock fields). Each cell owns a private
	// tracer and sampler, so archives stay isolated under
	// Parallelism > 1.
	ArchiveDir string
	// LogWriter, when non-nil, receives the virtual-clock NDJSON
	// structured log stream (internal/vlog) from every cell's runtime
	// at LogLevel. Cells run concurrently under Parallelism > 1;
	// writes are line-atomic via an internal lock.
	LogWriter io.Writer
	// LogLevel gates LogWriter records (default slog.LevelInfo).
	LogLevel slog.Leveler
	// ScanWorkers sizes the sweep-wide scan-executor pool that runs
	// pure map record scans off the simulator goroutines (the
	// cmd/experiments -scan-workers flag); 0 disables it and scans run
	// inline at the completion event, exactly as before. The executor
	// only changes where and when real compute happens — simulated
	// costs come from split metadata and results are joined at
	// completion-event time — so all tables and CSVs are byte-identical
	// at any setting.
	ScanWorkers int
	// AlertRules, when non-empty, runs a per-cell time-series engine
	// (internal/tsdb) evaluating these declarative alert/SLO rules on
	// the cell's virtual clock in every figure 5-8 cell (the
	// cmd/experiments -alert-rules flag); ablation cells run none.
	// Alerting enables tracing in those cells — the engine's series
	// are fed from the trace counters — and wires a per-cell
	// qstats registry so slo_burn rules see finished queries. Like
	// archiving, alerting changes real wall-clock time only;
	// tables and CSVs stay byte-identical. With ArchiveDir, each cell's
	// archive carries the series and the alert log.
	AlertRules []tsdb.Rule
	// InputPath selects how map tasks read their splits in every cell
	// (the cmd/experiments -input-path flag): "" or "full" is the seed
	// behaviour (every block read, byte-identical output); "skip" reads
	// only zone-map-promising sub-blocks; "index" additionally grabs
	// statistically promising splits first (informed grab ordering).
	// Unlike ScanWorkers, skip and index change simulated costs and
	// provider decisions — that is the point — so their tables are NOT
	// byte-identical to full's.
	InputPath string
}

// DefaultOptions is the paper-faithful configuration.
func DefaultOptions() Options {
	return Options{
		Scales:            []int{5, 10, 20, 40, 100},
		Runs:              5,
		SampleK:           10_000,
		Selectivity:       dataset.DefaultSelectivity,
		Users:             10,
		WarmupS:           600,
		MeasureS:          3600,
		WorkloadScale:     100,
		SamplingFractions: []float64{0.2, 0.4, 0.6, 0.8},
		Policies:          []string{core.PolicyC, core.PolicyLA, core.PolicyMA, core.PolicyHA, core.PolicyHadoop},
		Seed:              1,
	}
}

// QuickOptions shrinks everything for fast regeneration: smaller
// scales (same 20x spread), 1 run per cell, shorter windows, and a
// 600k-rows-per-scale substitute that keeps partitions I/O-bound.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Scales = []int{5, 10, 20}
	o.Runs = 1
	o.SampleK = 1_000
	o.RowsPerScaleOverride = 600_000
	o.WorkloadRowsPerScaleOverride = 2_400_000 // 300k rows/partition
	o.WarmupS = 200
	o.MeasureS = 1200
	o.WorkloadScale = 20
	o.SamplingFractions = []float64{0.2, 0.5, 0.8}
	return o
}

func (o Options) validate() error {
	if len(o.Scales) == 0 || o.Runs <= 0 || o.SampleK <= 0 || o.Users <= 0 {
		return fmt.Errorf("experiments: incomplete options %+v", o)
	}
	if len(o.Policies) == 0 {
		return fmt.Errorf("experiments: no policies selected")
	}
	if !mapreduce.ValidInputPath(o.InputPath) {
		return fmt.Errorf("experiments: unknown input path %q (want full, skip or index)", o.InputPath)
	}
	if err := tsdb.ValidateRules(o.AlertRules); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// datasetSpec builds the Spec for one (scale, z) cell.
func (o Options) datasetSpec(scale int, z float64, name string, seedOffset int64) dataset.Spec {
	spec := dataset.Spec{
		Name:        name,
		Scale:       scale,
		Seed:        o.Seed + seedOffset,
		Z:           z,
		Selectivity: o.Selectivity,
		Partitions:  scale * dataset.PartitionsPerScale,
	}
	if o.RowsPerScaleOverride > 0 {
		spec.RowsOverride = int64(scale) * o.RowsPerScaleOverride
	}
	return spec
}

// workloadSpec builds the Spec for a Figures 6-8 per-user dataset.
func (o Options) workloadSpec(z float64, name string, seedOffset int64) dataset.Spec {
	spec := o.datasetSpec(o.WorkloadScale, z, name, seedOffset)
	if o.WorkloadRowsPerScaleOverride > 0 {
		spec.RowsOverride = int64(o.WorkloadScale) * o.WorkloadRowsPerScaleOverride
	}
	return spec
}

// rowsPerScale returns the effective rows per unit scale.
func (o Options) rowsPerScale() int64 {
	if o.RowsPerScaleOverride > 0 {
		return o.RowsPerScaleOverride
	}
	return tpch.RowsPerScale
}
