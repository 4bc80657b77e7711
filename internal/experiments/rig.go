package experiments

import (
	"fmt"
	"io"
	"log/slog"
	"sync"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/hive"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/mapreduce/executor"
	"dynamicmr/internal/obs"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/tpch"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/tsdb"
	"dynamicmr/internal/vlog"
)

// sweepShared bundles the state every cell of one sweep shares: the
// dataset build cache, the map-output memo cache, and the scan
// executor pool (nil when Options.ScanWorkers is 0). All three are
// concurrency-safe; each cell otherwise owns a private rig, so
// parallel cells interact only through these.
type sweepShared struct {
	cache *dsCache
	memo  *mapreduce.MapOutputCache
	pool  *executor.Pool
	// logW, when non-nil, is the sweep-wide structured-log sink
	// (already wrapped for line-atomic concurrent writes); each rig
	// binds its own virtual clock to it via a private vlog handler.
	logW     io.Writer
	logLevel slog.Leveler
	// inputPath is Options.InputPath, applied to every rig's runtime.
	inputPath string
	// alertRules / alerting carry Options' alert configuration into
	// every rig: when alerting, each rig runs a private time-series
	// engine (plus a qstats registry feeding its slo_burn rules) on its
	// own virtual clock.
	alertRules []tsdb.Rule
	alerting   bool
}

// newSweepShared builds the shared state for one sweep.
func (o Options) newSweepShared() *sweepShared {
	sh := &sweepShared{
		cache:      newDSCache(),
		memo:       mapreduce.NewMapOutputCache(),
		pool:       executor.NewPool(o.ScanWorkers),
		inputPath:  o.InputPath,
		alertRules: o.AlertRules,
		alerting:   o.alerting(),
	}
	if o.LogWriter != nil {
		sh.logW = vlog.LockWriter(o.LogWriter)
		sh.logLevel = o.LogLevel
		if sh.logLevel == nil {
			sh.logLevel = slog.LevelInfo
		}
	}
	return sh
}

// close stops the pool's workers once the sweep's cells have drained.
// Safe on a sweep without a pool.
func (s *sweepShared) close() { s.pool.Close() }

// rig is one experiment's simulated test bench.
type rig struct {
	eng     *sim.Engine
	cl      *cluster.Cluster
	fs      *dfs.DFS
	jt      *mapreduce.JobTracker
	catalog *hive.Catalog
	// qs and db are the per-cell query registry and time-series/alert
	// engine; both nil (and nil-safe) unless the sweep is alerting.
	qs *qstats.Registry
	db *tsdb.DB
	// samp is the cell's obs sampler, whose snapshots the archive
	// carries; nil unless the sweep archives (see startSampler).
	samp *obs.Sampler
}

// startSampler starts the cell's obs sampler at intervalS when the
// sweep archives. It reads the cluster passively, so the cell's
// virtual timeline, and with it every table, is unchanged.
func (r *rig) startSampler(opt Options, intervalS float64) {
	if opt.ArchiveDir != "" {
		r.samp = obs.NewSampler(r.jt, obs.Config{IntervalS: intervalS})
		r.samp.Start()
	}
}

// newRig builds a fresh cluster; multiUser selects the 16-slot
// configuration of §V-D. sh carries the sweep-wide shared state: the
// map-output cache every cell's JobTracker consults (policies change
// scheduling, not computation, so one cell's map outputs serve them
// all) and the scan-executor pool that runs pure record scans off each
// cell's simulator goroutine. traced enables the rig's private
// span/metric registry — each rig gets its own tracer, so concurrent
// cells never share one.
func newRig(sched mapreduce.TaskScheduler, multiUser bool, sh *sweepShared, traced bool) *rig {
	eng := sim.NewEngine()
	cfg := cluster.PaperConfig()
	if multiUser {
		cfg = cfg.MultiUser()
	}
	cl := cluster.New(eng, cfg)
	mrCfg := mapreduce.DefaultConfig()
	mrCfg.MapOutputCache = sh.memo
	mrCfg.ScanExecutor = sh.pool
	mrCfg.InputPath = sh.inputPath
	if traced {
		mrCfg.Trace = trace.Config{Enabled: true}
	}
	if sh.logW != nil {
		// Each rig owns its engine, so each binds a fresh virtual-clock
		// handler to the shared (locked) sink.
		mrCfg.Logger = vlog.New(sh.logW, sh.logLevel, eng.Now)
	}
	jt := mapreduce.NewJobTracker(cl, mrCfg, sched)
	catalog := hive.NewCatalog()
	catalog.SetLogger(jt.Logger())
	r := &rig{
		eng:     eng,
		cl:      cl,
		fs:      dfs.New(cl),
		jt:      jt,
		catalog: catalog,
	}
	if sh.alerting {
		// Each rig owns its engine, so each runs a private collection
		// tick; the registry feeds slo_burn rules and the per-query
		// series. Rules were validated by Options.validate before the
		// sweep started, so New cannot fail here.
		db, err := tsdb.New(jt, tsdb.Config{Rules: sh.alertRules})
		if err != nil {
			panic("experiments: alert rules revalidated in newRig: " + err.Error())
		}
		r.qs = qstats.NewRegistry(jt)
		db.SetQueryStats(r.qs)
		db.Start()
		r.db = db
	}
	return r
}

// load stores a dataset in the rig's DFS and registers it as a table.
func (r *rig) load(ds *dataset.Dataset, name string) (*dfs.File, error) {
	srcs := make([]data.Source, ds.NumPartitions())
	for i, p := range ds.Partitions() {
		srcs[i] = p
	}
	f, err := r.fs.Create(name, srcs, 1)
	if err != nil {
		return nil, err
	}
	if err := r.catalog.Register(&hive.Table{Name: name, Schema: tpch.LineItemSchema, File: f}); err != nil {
		return nil, err
	}
	return f, nil
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
