package experiments

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"dynamicmr"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/mapreduce/executor"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/vlog"
)

// sweepShared bundles the state every cell of one sweep shares: the
// dataset build cache and the options every cell's cluster starts
// from — the runtime, carrying the map-output memo (policies change
// scheduling, not computation, so one cell's map outputs serve them
// all), the scan-executor pool (nil when Options.ScanWorkers is 0) and
// the input path, and the sweep's one log sink, locked so concurrent
// cells write whole lines. All of it is concurrency-safe, so parallel
// cells interact only through it.
type sweepShared struct {
	cache *dsCache
	pool  *executor.Pool
	base  []dynamicmr.Option
}

// newSweepShared builds the shared state for one sweep.
func (o Options) newSweepShared() *sweepShared {
	rc := mapreduce.DefaultConfig()
	rc.MapOutputCache = mapreduce.NewMapOutputCache()
	rc.ScanExecutor = executor.NewPool(o.ScanWorkers)
	rc.InputPath = o.InputPath
	sh := &sweepShared{
		cache: newDSCache(),
		pool:  rc.ScanExecutor,
		// WithRuntime replaces the whole runtime, so it goes first.
		base: []dynamicmr.Option{dynamicmr.WithRuntime(rc)},
	}
	if o.LogWriter != nil {
		sh.base = append(sh.base, dynamicmr.WithLogging(vlog.LockWriter(o.LogWriter), o.LogLevel))
	}
	return sh
}

// close stops the pool's workers once the sweep's cells have drained.
// Safe on a sweep without a pool. Cells never Close their clusters:
// the pool is the sweep's.
func (s *sweepShared) close() { s.pool.Close() }

// sweep runs one figure's or ablation's cells: it validates opt, builds
// the sweep's shared state, runs cell on every spec through runCells at
// opt's parallelism and returns the results in spec order, closing the
// scan pool once the cells have drained.
func sweep[S, R any](opt Options, specs []S, cell func(sh *sweepShared, s S) (R, error)) ([]R, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	sh := opt.newSweepShared()
	defer sh.close()
	out := make([]R, len(specs))
	err := runCells(opt.Parallelism, len(specs), func(i int) error {
		r, err := cell(sh, specs[i])
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// cluster builds one cell's cluster: the 4-slot-per-node §V-A testbed
// with FIFO scheduling unless opts say otherwise.
func (s *sweepShared) cluster(opts ...dynamicmr.Option) (*dynamicmr.Cluster, error) {
	return dynamicmr.NewCluster(append(slices.Clip(s.base), opts...)...)
}

// observed returns the options that observe a figure cell: when
// archiving, tracing and, with samplingS > 0, the obs sampler every
// samplingS virtual seconds; with alert rules, a time-series engine
// and query registry on the cell's own virtual clock (tracing too).
// None of them moves the cell's virtual timeline, so tables stay
// byte-identical.
func (o Options) observed(samplingS float64) []dynamicmr.Option {
	var opts []dynamicmr.Option
	if o.ArchiveDir != "" {
		opts = append(opts, dynamicmr.WithTracing())
		if samplingS > 0 {
			opts = append(opts, dynamicmr.WithUtilizationSampling(samplingS))
		}
	}
	if len(o.AlertRules) > 0 {
		opts = append(opts, dynamicmr.WithTimeSeries(o.AlertRules...))
	}
	return opts
}

// archive writes the cell's run archive, cut by Cluster.BuildArchive,
// to <name>.archive.gz in o.ArchiveDir; no-op when archiving is off.
// The archive carries the cell's diagnosis, invariant-checked so a
// cell that violates it fails its sweep loudly, and is unstamped, so a
// cell's bytes are deterministic across reruns.
func (o Options) archive(c *dynamicmr.Cluster, name string, cfg runarchive.RunConfig) error {
	if o.ArchiveDir == "" {
		return nil
	}
	cfg.Seed = o.Seed
	a, err := c.BuildArchive(name, cfg)
	if err != nil {
		return fmt.Errorf("experiments: archive (%s): %w", name, err)
	}
	return a.WriteFile(filepath.Join(o.ArchiveDir, name+".archive.gz"))
}

// dsCache memoises dataset builds across cells: datasets are pure
// values independent of any engine, so one build serves every policy
// and run of a cell. Concurrent cells requesting different keys build
// in parallel; cells requesting the same key share one build
// (singleflight via per-entry sync.Once) instead of serializing the
// whole cache behind a lock held during Build.
type dsCache struct {
	mu sync.Mutex
	m  map[string]*dsEntry
}

type dsEntry struct {
	once sync.Once
	ds   *dataset.Dataset
	err  error
}

func newDSCache() *dsCache { return &dsCache{m: make(map[string]*dsEntry)} }

func (c *dsCache) get(spec dataset.Spec) (*dataset.Dataset, error) {
	key := fmt.Sprintf("%s|%d|%g|%g|%d|%d|%d",
		spec.Name, spec.Scale, spec.Z, spec.Selectivity, spec.Partitions, spec.Seed, spec.RowsOverride)
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		e = &dsEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.ds, e.err = dataset.Build(spec) })
	return e.ds, e.err
}
