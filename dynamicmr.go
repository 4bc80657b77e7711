package dynamicmr

import (
	"fmt"
	"io"
	"log/slog"
	"strings"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/core"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/diag"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/hive"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/mapreduce/executor"
	"dynamicmr/internal/obs"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/sampling"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/tpch"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/tsdb"
	"dynamicmr/internal/vlog"
)

// DatasetSpec describes a LINEITEM dataset to generate and load.
type DatasetSpec struct {
	// Scale is the TPC-H scale factor (the paper evaluates 5-100).
	Scale int
	// Skew is the Zipf exponent for the distribution of
	// predicate-matching records across partitions: 0, 1 or 2.
	Skew float64
	// Selectivity of the planted predicate; 0 means the paper's 0.05%.
	Selectivity float64
	// Seed makes the dataset deterministic.
	Seed int64
	// Rows overrides the TPC-H cardinality (testing/demo scale); 0
	// keeps Scale x 6M rows.
	Rows int64
	// Partitions overrides the block count; 0 keeps 8 x Scale.
	Partitions int
}

// Input paths selectable with WithInputPath.
const (
	// InputPathFull is the stock read path: every map task reads its
	// whole split, block statistics notwithstanding. Query results and
	// virtual timings are byte-identical to clusters predating the
	// zone-map layer.
	InputPathFull = mapreduce.InputPathFull
	// InputPathSkip consults the load-time zone maps (per-block min/max
	// and match presence for the planted predicate family) and charges
	// simulated disk I/O and CPU only for the sub-blocks that can
	// contain matches; provably match-free blocks are skipped unread.
	// Scan results are record-identical to full; simulated costs — and
	// therefore provider decisions — change, which is the point.
	InputPathSkip = mapreduce.InputPathSkip
	// InputPathIndex reads matches through the per-partition clustered
	// index (one probe per promising block plus the matching rows) and
	// additionally has Input Providers grab statistically promising
	// splits first (informed grab ordering).
	InputPathIndex = mapreduce.InputPathIndex
)

// Option configures NewCluster.
type Option func(*config)

type config struct {
	hw             cluster.Config
	runtime        mapreduce.Config
	scheduler      mapreduce.TaskScheduler
	policies       *core.Registry
	sample         bool
	sampleInterval float64
	qstats         bool
	tsdb           bool
	alertRules     []tsdb.Rule
	logW           io.Writer
	logLevel       slog.Leveler
}

// WithHardware replaces the paper cluster's slot and node-speed
// configuration (the hardware itself is always the §V-A testbed).
func WithHardware(hw cluster.Config) Option {
	return func(c *config) { c.hw = hw }
}

// WithMultiUserSlots switches to the 16-map-slots-per-node
// configuration of the paper's multi-user experiments.
func WithMultiUserSlots() Option {
	return func(c *config) { c.hw = c.hw.MultiUser() }
}

// WithFairScheduler replaces the default FIFO scheduler with the Fair
// Scheduler, with a 5 s (virtual) locality wait.
func WithFairScheduler() Option {
	return func(c *config) { c.scheduler = mapreduce.NewFairScheduler() }
}

// WithRuntime replaces the MapReduce runtime configuration (task
// costs, failure injection, observability).
func WithRuntime(rc mapreduce.Config) Option {
	return func(c *config) { c.runtime = rc }
}

// WithSpeculativeExecution enables backup attempts for straggling map
// tasks (Hadoop's speculative execution).
func WithSpeculativeExecution() Option {
	return func(c *config) { c.runtime.SpeculativeExecution = true }
}

// WithPolicies replaces the Table I policy registry (e.g. one parsed
// from a custom policy.xml via ParsePolicyXML).
func WithPolicies(r *core.Registry) Option {
	return func(c *config) { c.policies = r }
}

// WithScanWorkers attaches an n-worker scan-executor pool that runs
// pure map record scans (jobs declaring a MemoKey, i.e. every sampling
// job) off the simulator goroutine, overlapping real compute with
// simulated I/O time. Simulated task costs are unchanged and results
// are joined at completion-event time, so all query results and
// virtual timings are identical to the inline default; only wall-clock
// time improves on multi-core hosts. n <= 0 keeps scans inline. Call
// Close when done to stop the workers.
func WithScanWorkers(n int) Option {
	return func(c *config) { c.runtime.ScanExecutor = executor.NewPool(n) }
}

// WithInputPath selects the map-task read path: InputPathFull (the
// default), InputPathSkip or InputPathIndex. NewCluster rejects
// unknown modes. Sessions inherit the cluster's mode as their default
// and individual queries can override it with
// SET dynamic.input.path = full|skip|index.
func WithInputPath(mode string) Option {
	return func(c *config) { c.runtime.InputPath = mode }
}

// WithTracing enables the tracing/metrics subsystem with the given
// configuration (Enabled is forced on). The collected spans, policy
// audit log and utilization timeline are available via Tracer().
func WithTracing(tc trace.Config) Option {
	return func(c *config) {
		tc.Enabled = true
		c.runtime.Trace = tc
	}
}

// WithLogging routes the runtime's structured log stream — job
// lifecycle, Input Provider decisions, query execution — to w as
// NDJSON, one record per line, each stamped with the virtual clock
// ("vt" attribute; see internal/vlog for the attribute contract).
// level gates records (nil means slog.LevelInfo). Without this
// option nothing is ever written: library code defaults to a discard
// logger.
func WithLogging(w io.Writer, level slog.Leveler) Option {
	return func(c *config) {
		c.logW = w
		c.logLevel = level
	}
}

// WithUtilizationSampling attaches a virtual-clock utilization sampler
// to the cluster: every intervalS virtual seconds (0 picks the default
// 30 s cadence) it snapshots per-node CPU, disk and slot occupancy and
// queue depths. The series backs Sampler(), the obs.Server endpoints
// and BuildArchive's snapshot records, which `dynmr render report`
// charts; combine with WithTracing for the slot-occupancy Gantt and
// gauge registry. Sampling never changes the cluster's virtual
// timeline.
func WithUtilizationSampling(intervalS float64) Option {
	return func(c *config) {
		c.sample = true
		c.sampleInterval = intervalS
	}
}

// WithQueryStats attaches the per-query observability registry
// (internal/qstats): every query run through a session gets a stable
// ID ("q-000001"...) that rides the JobConf and the structured-log
// stream, a lifecycle record (submit / first-match / limit-hit /
// finish), resource attribution, an incremental diag breakdown at
// finish, and a slot in the rolling per-policy latency histograms.
// Tracing is forced on (the registry consumes spans incrementally).
// Read the registry via QueryStats(); dynmr serve exposes it on
// /queries and /live.
func WithQueryStats() Option {
	return func(c *config) {
		c.qstats = true
		c.runtime.Trace.Enabled = true
	}
}

// WithTimeSeries attaches the in-process time-series engine
// (internal/tsdb): every tsdb.DefaultIntervalS (5) virtual seconds it
// folds the trace registry's counters and gauges, the cluster's
// queue/slot state, the per-policy qstats aggregates and the derived
// per-query series (match-arrival rate, per-split scan cost, overshoot
// ratio) into fixed-capacity downsampling ring buffers.
// Tracing is forced on (the counters and gauges are the main feed).
// Read the engine via TSDB(); dynmr serve exposes it on /tsdb and as
// the trend charts of /live and the run report.
//
// Given rules, it also arms the declarative alert/SLO layer: the rules
// are evaluated at every collection tick on the virtual clock and
// produce a firing/resolved event log (schema tsdb.AlertsSchemaVersion),
// and query stats are forced on so latency-objective (slo_burn) rules
// have their input. Read the log via TSDB().AlertsDump(); dynmr serve
// exposes it on /alerts and as the Alerts section of /live.
func WithTimeSeries(rules ...tsdb.Rule) Option {
	return func(c *config) {
		c.tsdb = true
		c.runtime.Trace.Enabled = true
		if len(rules) > 0 {
			c.alertRules = append(c.alertRules, rules...)
			c.qstats = true
		}
	}
}

// Cluster is the top-level handle: a simulated Hadoop cluster with a
// DFS, a JobTracker, a table catalog and a policy registry.
type Cluster struct {
	eng      *sim.Engine
	hw       *cluster.Cluster
	fs       *dfs.DFS
	jt       *mapreduce.JobTracker
	catalog  *hive.Catalog
	policies *core.Registry
	sessions map[string]*hive.Session
	sampler  *obs.Sampler
	qstats   *qstats.Registry
	tsdb     *tsdb.DB
	scanPool *executor.Pool
	seed     int64
}

// NewCluster builds a simulated cluster; defaults reproduce the
// paper's §V-A testbed (10 nodes x 4 cores x 4 disks, 4 map
// slots/node, FIFO scheduling, Table I policies).
func NewCluster(opts ...Option) (*Cluster, error) {
	cfg := config{
		hw:      cluster.PaperConfig(),
		runtime: mapreduce.DefaultConfig(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.hw.Validate(); err != nil {
		return nil, err
	}
	if cfg.policies == nil {
		cfg.policies = core.DefaultRegistry()
	}
	if !mapreduce.ValidInputPath(cfg.runtime.InputPath) {
		return nil, fmt.Errorf("dynamicmr: unknown input path %q (want %q, %q or %q)",
			cfg.runtime.InputPath, InputPathFull, InputPathSkip, InputPathIndex)
	}
	eng := sim.NewEngine()
	hw := cluster.New(eng, cfg.hw)
	if cfg.logW != nil {
		level := cfg.logLevel
		if level == nil {
			level = slog.LevelInfo
		}
		// The logger binds to this cluster's engine, so it can only be
		// built here, after the clock exists.
		cfg.runtime.Logger = vlog.New(vlog.LockWriter(cfg.logW), level, eng.Now)
	}
	jt := mapreduce.NewJobTracker(hw, cfg.runtime, cfg.scheduler)
	catalog := hive.NewCatalog()
	catalog.SetLogger(jt.Logger())
	c := &Cluster{
		eng:      eng,
		hw:       hw,
		fs:       dfs.New(hw),
		jt:       jt,
		catalog:  catalog,
		policies: cfg.policies,
		sessions: make(map[string]*hive.Session),
		scanPool: cfg.runtime.ScanExecutor,
	}
	if cfg.sample {
		if cfg.runtime.Trace.Enabled {
			// A traced runtime polls from its first submission anyway.
			// Armed first, the poll fires before the sampler at every
			// 30 s instant they share, so the sampler's
			// sim.processed_events gauge counts the poll's event: the
			// order the figure 6-8 cell archives were recorded in.
			jt.SampleUtilization()
		}
		c.sampler = obs.NewSampler(c.jt, obs.Config{IntervalS: cfg.sampleInterval})
		c.sampler.Start()
	}
	if cfg.qstats {
		c.qstats = qstats.NewRegistry(jt)
	}
	if cfg.tsdb {
		db, err := tsdb.New(jt, tsdb.Config{Rules: cfg.alertRules})
		if err != nil {
			return nil, err
		}
		db.SetQueryStats(c.qstats)
		db.Start()
		c.tsdb = db
	}
	return c, nil
}

// Now returns the cluster's virtual time in seconds.
func (c *Cluster) Now() float64 { return c.eng.Now() }

// Close stops the scan-executor pool's workers when the cluster was
// built WithScanWorkers. Idempotent and safe to call on any cluster;
// queries submitted after Close fall back to inline scans.
func (c *Cluster) Close() { c.scanPool.Close() }

// InputPath reports the map-task read path the cluster was built with
// (InputPathFull unless WithInputPath chose otherwise).
func (c *Cluster) InputPath() string { return c.jt.InputPath() }

// Policies returns the policy registry (the policy.xml contents).
func (c *Cluster) Policies() *core.Registry { return c.policies }

// Catalog returns the table catalog.
func (c *Cluster) Catalog() *hive.Catalog { return c.catalog }

// JobTracker exposes the underlying runtime for advanced use (direct
// job submission, custom Input Providers).
func (c *Cluster) JobTracker() *mapreduce.JobTracker { return c.jt }

// Engine exposes the discrete-event clock for advanced use.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Tracer returns the cluster's tracer; nil unless built WithTracing.
// Use it to export a Chrome trace (trace.WriteChromeTrace over its
// spans, decisions and samples) or the utilization timeline
// (trace.WriteMetricCSV over its metric samples).
func (c *Cluster) Tracer() *trace.Tracer { return c.jt.Tracer() }

// Sampler returns the utilization sampler; nil unless built
// WithUtilizationSampling.
func (c *Cluster) Sampler() *obs.Sampler { return c.sampler }

// QueryStats returns the per-query registry; nil unless built
// WithQueryStats or WithTimeSeries with rules. All registry methods
// are nil-safe, so the result can be used unconditionally.
func (c *Cluster) QueryStats() *qstats.Registry { return c.qstats }

// TSDB returns the time-series engine; nil unless built
// WithTimeSeries. All engine methods are nil-safe, so the result can
// be used unconditionally.
func (c *Cluster) TSDB() *tsdb.DB { return c.tsdb }

// Diagnose runs the post-run job diagnosis engine over everything the
// cluster's tracer recorded: per job, the critical path, the time
// breakdown (whose components sum to the makespan) and any detected
// anomalies (stragglers, speculative waste, scan stalls). It requires
// WithTracing. The report can be re-generated at any point; it covers
// the jobs finished so far.
func (c *Cluster) Diagnose() (*diag.Report, error) {
	rep := diag.FromTracer(c.jt.Tracer())
	if rep == nil {
		return nil, fmt.Errorf("dynamicmr: Diagnose requires WithTracing")
	}
	return rep, nil
}

// Tables lists the registered table names.
func (c *Cluster) Tables() []string { return c.catalog.Names() }

// LoadLineItem generates a LINEITEM dataset per spec and loads it as
// the table name (see Load). It returns the built dataset for
// inspection (planted predicate, match distribution).
func (c *Cluster) LoadLineItem(name string, spec DatasetSpec) (*dataset.Dataset, error) {
	c.seed++
	ds, err := dataset.Build(dataset.Spec{
		Name:         name,
		Scale:        spec.Scale,
		Seed:         spec.Seed + c.seed*1_000_003,
		Z:            spec.Skew,
		Selectivity:  spec.Selectivity,
		Partitions:   spec.Partitions,
		RowsOverride: spec.Rows,
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.Load(name, ds); err != nil {
		return nil, err
	}
	return ds, nil
}

// Load stores a built LINEITEM dataset in the DFS (blocks spread
// round-robin across all disks, unreplicated, as in §V-B) and
// registers it as the queryable table name. A dataset is immutable, so
// one build can back tables in any number of clusters, concurrently
// too. It returns the table's file, whose splits a job submitted below
// the Hive layer reads (mapreduce.SplitsForFile).
func (c *Cluster) Load(name string, ds *dataset.Dataset) (*dfs.File, error) {
	srcs := make([]data.Source, ds.NumPartitions())
	for i, p := range ds.Partitions() {
		srcs[i] = p
	}
	f, err := c.fs.Create(name, srcs, 1)
	if err != nil {
		return nil, err
	}
	if err := c.catalog.Register(&hive.Table{Name: name, Schema: tpch.LineItemSchema, File: f}); err != nil {
		return nil, err
	}
	return f, nil
}

// Session returns (creating on first use) the named user's Hive
// session. Sessions carry per-user SET overrides and map to Fair
// Scheduler pools.
func (c *Cluster) Session(user string) *hive.Session {
	s, ok := c.sessions[user]
	if !ok {
		s = hive.NewSession(c.jt, c.catalog, c.policies, user)
		s.SetQueryStats(c.qstats)
		c.sessions[user] = s
	}
	return s
}

// Query executes one HiveQL statement as the "default" user and drives
// the simulation until the query completes.
func (c *Cluster) Query(sql string) (*hive.Result, error) {
	return c.Session("default").Execute(sql)
}

// Sample runs predicate-based sampling directly (without SQL): a
// dynamic MapReduce job over the named table returning k records
// satisfying the predicate, executed under the named growth policy
// ("" = LA). columns selects the output projection (nil = all).
func (c *Cluster) Sample(table, predicate string, k int64, policy string, columns []string) (*hive.Result, error) {
	if policy == "" {
		policy = hive.DefaultPolicy
	}
	// "Adaptive" is the §VII runtime-selection mode, resolved by the
	// session rather than the registry.
	if !strings.EqualFold(policy, "adaptive") {
		if _, err := c.policies.Get(policy); err != nil {
			return nil, err
		}
	}
	sess := c.Session("default")
	prev := sess.Get(mapreduce.ConfDynamicPolicy, "")
	sess.Set(mapreduce.ConfDynamicPolicy, policy)
	defer func() {
		if prev == "" {
			sess.Set(mapreduce.ConfDynamicPolicy, hive.DefaultPolicy)
		} else {
			sess.Set(mapreduce.ConfDynamicPolicy, prev)
		}
	}()
	cols := "*"
	if len(columns) > 0 {
		cols = ""
		for i, col := range columns {
			if i > 0 {
				cols += ", "
			}
			cols += col
		}
	}
	sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s LIMIT %d", cols, table, predicate, k)
	return sess.Execute(sql)
}

// ParsePolicyXML parses a policy.xml document into a registry usable
// with WithPolicies.
func ParsePolicyXML(doc []byte) (*core.Registry, error) {
	return core.ParsePolicyXML(doc)
}

// SelectivityEstimate is the result of EstimateSelectivity.
type SelectivityEstimate struct {
	// Selectivity is the estimated match fraction.
	Selectivity float64
	// Matches and Records are what the job actually observed.
	Matches int64
	Records int64
	// RelativeError is the confidence half-width over the estimate.
	RelativeError float64
	// PartitionsProcessed is how much input the estimate cost.
	PartitionsProcessed int
	// ResponseTime is the job's virtual duration in seconds.
	ResponseTime float64
}

// EstimateSelectivity estimates a predicate's selectivity on a table
// to within maxRelErr relative error (95% confidence) using the §VI
// statistics-harness application of incremental processing: a dynamic
// counting job consumes randomly-ordered partitions under the named
// growth policy ("" = LA) until the confidence interval is tight,
// reading only as much input as the estimate requires.
func (c *Cluster) EstimateSelectivity(table, predicate string, maxRelErr float64, policy string) (SelectivityEstimate, error) {
	var out SelectivityEstimate
	tab, err := c.catalog.Lookup(table)
	if err != nil {
		return out, err
	}
	pred, err := hive.ParsePredicate(predicate)
	if err != nil {
		return out, err
	}
	if err := expr.Validate(pred, tab.Schema); err != nil {
		return out, err
	}
	if policy == "" {
		policy = hive.DefaultPolicy
	}
	pol, err := c.policies.Get(policy)
	if err != nil {
		return out, err
	}
	spec, err := sampling.NewEstimationJobSpec(pred, nil)
	if err != nil {
		return out, err
	}
	c.seed++
	provider := sampling.NewEstimatorProvider(maxRelErr, c.seed*7877)
	client, err := core.SubmitDynamic(c.jt, spec, mapreduce.SplitsForFile(tab.File), provider, pol)
	if err != nil {
		return out, err
	}
	job := client.Job()
	if !mapreduce.RunUntilDone(c.eng, job, c.eng.Now()+1e7) {
		return out, fmt.Errorf("dynamicmr: estimation job exceeded deadline")
	}
	if job.State() == mapreduce.StateFailed {
		return out, fmt.Errorf("dynamicmr: estimation job failed: %s", job.Failure())
	}
	// The stopping rule judged the counters of its last evaluation; the
	// result uses the final ones, so in-flight maps that finished after
	// end-of-input count toward the estimate and its error alike.
	est := provider.Estimate(job.Counters.UserCounter(sampling.CounterMatches), job.Counters.MapInputRecords)
	out = SelectivityEstimate{
		Selectivity:         est.Selectivity,
		Matches:             est.Matches,
		Records:             est.Records,
		RelativeError:       est.RelativeError,
		PartitionsProcessed: job.CompletedMaps(),
		ResponseTime:        job.ResponseTime(),
	}
	return out, nil
}
