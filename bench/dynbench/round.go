package dynbench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/core"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/diag"
	"dynamicmr/internal/hive"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/mapreduce/executor"
	"dynamicmr/internal/obs"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/tpch"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/tsdb"
)

// scanWorkers sizes the scan-executor pool: one worker per core of the
// 2-core machine the baseline was recorded on, so the load is one
// simulator goroutine plus this fixed pool in one process.
const scanWorkers = 2

// The observed workload's alert rule: an SLO on the sampling queries'
// virtual latency, evaluated by tsdb at its default cadence.
var observedRules = []tsdb.Rule{{
	Name:       "sample-latency",
	Kind:       tsdb.KindSLOBurn,
	ObjectiveS: 60,
	MaxBurnPct: 5,
	WindowS:    300,
}}

// Options selects what a Runner runs.
type Options struct {
	Workload string
	Seed     int64
	// Jobs is the round length in completed jobs (0: the workload's
	// default).
	Jobs int
	// WorkDir receives the observed workload's flush files, which each
	// round deletes again. It must exist.
	WorkDir string

	// tamper, set only by tests, rewrites a job's output before the
	// oracle sees it, to prove that faults raise the failure count.
	tamper func(seq int64, rows []mapreduce.KeyValue) []mapreduce.KeyValue
}

// Counts are a round's exact counts. They depend on the seed alone, so
// every round of one run must report the same values, traced or not;
// a difference means a decorator or the bench itself changed what the
// program did.
type Counts struct {
	Events   uint64
	VirtualS float64
	// Summed over completed jobs.
	Maps, Splits, MapOutputRecords, ShuffleRecords, ReduceOutRecords int64
	BlocksRead, BlocksSkipped                                        int64
	Evals, Grows, Waits                                              int64
	SampleOutput, SampleK                                            int64
	// At the end of the loop, including jobs still in flight.
	MemoHits, MemoMisses       uint64
	ExecSubmitted, ExecDeduped uint64
	TraceSpans                 int64
	Digest                     uint64
	// ScanRecords is counted by the source decorator: traced rounds only.
	ScanRecords int64
}

// Round is the outcome of one fixed-work round.
type Round struct {
	Traced bool

	// Jobs completed; Failed counts FAILED jobs plus oracle failures,
	// and Errors describes the first few.
	Jobs   int
	Failed int
	Errors []string

	// Host wall-clock seconds. LoopS excludes the time of the oracle
	// (OracleS) and of the calibration (CalS, summed over CalSlices
	// slices run during the loop); WallS is the whole round. BlockedS is
	// how long the loop waited on scans (Engine.BlockedReal).
	SetupS, LoopS, OracleS, WallS, BlockedS float64
	CalS                                    float64
	CalSlices                               int
	// JobHostMS is each completed job's host time from SubmitAsync to
	// the Step that finished it, oracle and calibration excluded.
	JobHostMS []float64

	// Runtime counters over the loop.
	AllocBytes uint64
	GCCycles   uint32
	GCCPUS     float64

	Counts Counts

	// Traced rounds: what the decorators attribute to layers.
	SchedS, HiveS, ScanBusyS           float64
	SchedCalls, SchedTasks, SchedEmpty int64
	HiveQueries, ScanCalls             int64
	Spans                              []Span

	// Observed rounds: the end-of-run flush, total and per stage.
	FlushS, DiagS, TSDBS, QStatsS, ArchiveS, ArchiveMB float64
}

// rig is one round's simulated test bench.
type rig struct {
	eng      *sim.Engine
	jt       *mapreduce.JobTracker
	memo     *mapreduce.MapOutputCache
	pool     *executor.Pool
	datasets []*dataset.Dataset
	sessions []*hive.Session
	qs       *qstats.Registry
	db       *tsdb.DB
}

// setup builds the rig the way internal/experiments does: engine,
// cluster, JobTracker over a shared memo and scan pool, datasets with
// their zone maps loaded into the DFS and registered with hive, and one
// session per user. acct, when non-nil, wraps the scheduler and every
// partition in the timing decorators.
func (p *plan) setup(acct *accounting) (*rig, error) {
	eng := sim.NewEngine()
	cfg := cluster.PaperConfig()
	if p.multiUser {
		cfg = cfg.MultiUser()
	}
	cl := cluster.New(eng, cfg)
	r := &rig{eng: eng, memo: mapreduce.NewMapOutputCache(), pool: executor.NewPool(scanWorkers)}
	mrCfg := mapreduce.DefaultConfig()
	mrCfg.MapOutputCache = r.memo
	mrCfg.ScanExecutor = r.pool
	if p.observed {
		mrCfg.Trace = trace.Config{Enabled: true}
	}
	var sched mapreduce.TaskScheduler = mapreduce.NewFIFOScheduler()
	if acct != nil {
		sched = &timedScheduler{inner: sched, acct: acct}
	}
	r.jt = mapreduce.NewJobTracker(cl, mrCfg, sched)
	fs := dfs.New(cl)
	catalog := hive.NewCatalog()
	for _, spec := range p.tables {
		ds, err := dataset.Build(spec)
		if err != nil {
			r.close()
			return nil, err
		}
		srcs := make([]data.Source, ds.NumPartitions())
		for i, part := range ds.Partitions() {
			srcs[i] = part
			if acct != nil {
				srcs[i] = &timedSource{Source: part, name: fmt.Sprintf("%s/%d", spec.Name, i), acct: acct}
			}
		}
		f, err := fs.Create(spec.Name, srcs, 1)
		if err == nil {
			err = catalog.Register(&hive.Table{Name: spec.Name, Schema: tpch.LineItemSchema, File: f})
		}
		if err != nil {
			r.close()
			return nil, err
		}
		r.datasets = append(r.datasets, ds)
	}
	if p.observed {
		db, err := tsdb.New(r.jt, tsdb.Config{Rules: observedRules})
		if err != nil {
			r.close()
			return nil, err
		}
		r.qs = qstats.NewRegistry(r.jt)
		db.SetQueryStats(r.qs)
		db.Start()
		r.db = db
		obs.NewSampler(r.jt, obs.Config{IntervalS: obs.DefaultIntervalS}).Start()
	}
	for _, u := range p.users {
		s := hive.NewSession(r.jt, catalog, nil, u.name)
		s.SetQueryStats(r.qs)
		r.sessions = append(r.sessions, s)
	}
	return r, nil
}

// poolIdle reports whether no scan is queued or running, so that
// pausing the simulator cannot let scans get ahead of it.
func (r *rig) poolIdle() bool {
	submitted, _, completed := r.pool.Stats()
	return submitted == completed
}

// close stops the scan workers, waiting for scans of abandoned jobs.
// Calling it again is harmless.
func (r *rig) close() { r.pool.Close() }

// Runner runs rounds of one (workload, seed). It keeps the oracle's
// ground truth between rounds: every round of a seed loads the same
// tables, so the truth is built once.
type Runner struct {
	opt     Options
	plan    *plan
	planted []*plantedTruth // by table, planted-predicate workloads
	adhoc   *adhocOracle
	cal     *calibrator
}

// NewRunner generates the workload's inputs for opt.Seed.
func NewRunner(opt Options) (*Runner, error) {
	p, err := newPlan(opt.Workload, opt.Seed, opt.Jobs)
	if err != nil {
		return nil, err
	}
	if p.observed && opt.WorkDir == "" {
		return nil, fmt.Errorf("dynbench: %s needs a work directory for its flush files", p.workload)
	}
	return &Runner{opt: opt, plan: p, cal: newCalibrator()}, nil
}

// buildOracle derives the ground truth from the first round's datasets.
func (rn *Runner) buildOracle(dss []*dataset.Dataset) error {
	if rn.plan.workload == AdhocScan {
		o, err := newAdhocOracle(dss[0], rn.plan.users[0].queries)
		rn.adhoc = o
		return err
	}
	for _, ds := range dss {
		t, err := newPlantedTruth(ds)
		if err != nil {
			return err
		}
		rn.planted = append(rn.planted, t)
	}
	return nil
}

// seat is one user's place in the closed loop.
type seat struct {
	u      *user
	sess   *hive.Session
	next   int
	q      query
	job    *mapreduce.Job
	client *core.JobClient
	qid    int64
	start  time.Duration // bench clock at SubmitAsync
	startW time.Time     // wall clock at SubmitAsync, for spans
}

// maxErrors bounds how many failure descriptions a round keeps.
const maxErrors = 5

// Round runs one fixed-work round: set up a fresh rig, drive the closed
// loop until the plan's job count has completed, check every completed
// job, and (observed) flush. traced wraps the program's seams in the
// timing decorators.
func (rn *Runner) Round(traced bool) (*Round, error) {
	p := rn.plan
	out := &Round{Traced: traced, JobHostMS: make([]float64, 0, p.jobs)}
	var acct *accounting
	if traced {
		acct = &accounting{}
	}
	runtime.GC() // every round starts from a collected heap
	wall := time.Now()
	rg, err := p.setup(acct)
	if err != nil {
		return nil, err
	}
	defer rg.close()
	out.SetupS = time.Since(wall).Seconds()

	var truthBuild time.Duration
	if rn.planted == nil && rn.adhoc == nil {
		o0 := time.Now()
		if err := rn.buildOracle(rg.datasets); err != nil {
			return nil, err
		}
		truthBuild = time.Since(o0)
	}

	seats := make([]*seat, len(p.users))
	for i := range p.users {
		seats[i] = &seat{u: &p.users[i], sess: rg.sessions[i]}
	}
	var (
		dg      = digestOffset
		nextQID int64
		ms      runtime.MemStats
		gc      = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	)
	runtime.ReadMemStats(&ms)
	metrics.Read(gc)
	alloc0, cycles0, gcCPU0 := ms.TotalAlloc, ms.NumGC, gc[0].Value.Float64()

	// Checks and calibration slices inside the loop; their time is
	// subtracted from every loop timing.
	var oracle, paused time.Duration
	calEvery := max(p.jobs/calSlices, 1)
	calDue := calEvery
	loopStart := time.Now()
	if acct != nil {
		acct.origin = loopStart
	}
	clock := func() time.Duration { return time.Since(loopStart) - oracle - paused }
	submit := func(s *seat) error {
		s.q = s.u.queries[s.next%len(s.u.queries)]
		s.next++
		s.qid = nextQID
		nextQID++
		s.start = clock()
		s.startW = time.Now()
		client, job, err := s.sess.SubmitAsync(s.q.sql)
		if acct != nil {
			end := time.Now()
			acct.hiveTime += end.Sub(s.startW)
			acct.hiveCalls++
			acct.span(Span{Name: spanHiveSubmit, Query: s.qid, Parent: spanJob,
				StartNS: acct.since(s.startW), EndNS: acct.since(end)})
		}
		if err != nil {
			return fmt.Errorf("dynbench: %s: %w", s.u.name, err)
		}
		s.job, s.client = job, client
		return nil
	}
	for _, s := range seats {
		if err := submit(s); err != nil {
			return nil, err
		}
	}
	for out.Jobs < p.jobs {
		if !rg.eng.Step() {
			return nil, fmt.Errorf("dynbench: %s: event queue drained after %d jobs", p.workload, out.Jobs)
		}
		now, nowW := time.Duration(-1), time.Time{}
		for _, s := range seats {
			if out.Jobs >= p.jobs {
				break
			}
			if s.job == nil || !s.job.Done() {
				continue
			}
			if now < 0 {
				nowW = time.Now()
				now = nowW.Sub(loopStart) - oracle - paused
			}
			out.JobHostMS = append(out.JobHostMS, float64(now-s.start)/float64(time.Millisecond))
			if acct != nil {
				acct.span(Span{Name: spanJob, Query: s.qid, StartNS: acct.since(s.startW), EndNS: acct.since(nowW)})
			}
			o0 := time.Now()
			rn.account(out, s, &dg)
			oracle += time.Since(o0)
			if err := rg.jt.Retire(s.job); err != nil {
				return nil, err
			}
			s.job, s.client = nil, nil
			out.Jobs++
			if out.Jobs >= calDue && rg.poolIdle() {
				c0 := time.Now()
				out.CalS += rn.cal.run().Seconds()
				out.CalSlices++
				paused += time.Since(c0)
				calDue += calEvery
			}
			if out.Jobs < p.jobs {
				if err := submit(s); err != nil {
					return nil, err
				}
			}
		}
	}
	out.LoopS = clock().Seconds()
	out.OracleS = (truthBuild + oracle).Seconds()
	runtime.ReadMemStats(&ms)
	metrics.Read(gc)
	out.AllocBytes = ms.TotalAlloc - alloc0
	out.GCCycles = ms.NumGC - cycles0
	out.GCCPUS = gc[0].Value.Float64() - gcCPU0

	c := &out.Counts
	c.Events = rg.eng.Processed()
	c.VirtualS = rg.eng.Now()
	c.MemoHits, c.MemoMisses = rg.memo.Stats()
	c.ExecSubmitted, c.ExecDeduped, _ = rg.pool.Stats()
	c.TraceSpans = rg.jt.Tracer().SpanCount()
	c.Digest = uint64(dg)
	out.BlockedS = rg.eng.BlockedReal().Seconds()
	// Which scans were submitted is fixed by virtual time, but whether
	// those of jobs still in flight have finished by now is not: wait for
	// all of them before reading the scan counters.
	rg.close()
	if out.CalSlices == 0 { // the pool never idled on a slice's turn
		out.CalS, out.CalSlices = rn.cal.run().Seconds(), 1
	}
	if acct != nil {
		out.SchedS, out.SchedCalls, out.SchedTasks, out.SchedEmpty = acct.schedTime.Seconds(), acct.schedCalls, acct.schedTasks, acct.schedEmpty
		out.HiveS, out.HiveQueries = acct.hiveTime.Seconds(), acct.hiveCalls
		out.ScanCalls, c.ScanRecords = acct.scanCalls.Load(), acct.scanRecords.Load()
		out.ScanBusyS = float64(acct.scanNanos.Load()) / 1e9
	}
	if p.observed {
		if err := rn.flush(rg, out, acct); err != nil {
			return nil, err
		}
	}
	if acct != nil {
		acct.mu.Lock()
		out.Spans = acct.spans
		acct.mu.Unlock()
	}
	out.WallS = time.Since(wall).Seconds()
	return out, nil
}

// account folds one completed job into the round's counts and checks it
// against the oracle. It runs inside the oracle's timing.
func (rn *Runner) account(out *Round, s *seat, dg *digest) {
	j := s.job
	c := &out.Counts
	c.Maps += j.Counters.CompletedMaps
	c.Splits += int64(j.ScheduledMaps())
	c.MapOutputRecords += j.Counters.MapOutputRecords
	c.ShuffleRecords += j.Counters.ReduceInputRecs
	c.ReduceOutRecords += j.Counters.ReduceOutputRecs
	c.BlocksRead += j.Counters.ScanBlocksRead
	c.BlocksSkipped += j.Counters.ScanBlocksSkipped
	if s.client != nil {
		for _, d := range s.client.Decisions() {
			c.Evals++
			switch d.Response {
			case core.InputAvailable:
				c.Grows++
			case core.NoInputAvailable:
				c.Waits++
			}
		}
	}
	if s.q.k >= 0 {
		c.SampleOutput += j.Counters.MapOutputRecords
		c.SampleK += s.q.k
	}
	rows := j.Output()
	if rn.opt.tamper != nil {
		rows = rn.opt.tamper(s.qid, rows)
	}
	dg.job(s.qid, rows)
	var err error
	switch {
	case j.State() == mapreduce.StateFailed:
		err = fmt.Errorf("job failed: %s", j.Failure())
	case rn.adhoc != nil:
		err = rn.adhoc.check(rows, s.q)
	default:
		err = rn.planted[s.u.table].check(rows, s.q.k)
	}
	if err != nil {
		out.Failed++
		if len(out.Errors) < maxErrors {
			out.Errors = append(out.Errors, fmt.Sprintf("query %d (%s): %v", s.qid, s.q.sql, err))
		}
	}
}

// flush performs the end-of-run flush that -archive-out and serve's
// SIGINT perform, timing each stage: diagnosis, the tsdb series and
// alert dumps, the qstats dump, and the run archive. The files land in
// the work directory and are deleted once measured.
func (rn *Runner) flush(rg *rig, out *Round, acct *accounting) error {
	dir := rn.opt.WorkDir
	stage := func(name string, dst *float64, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		*dst = end.Sub(start).Seconds()
		out.FlushS += *dst
		if acct != nil {
			acct.span(Span{Name: spanFlush, Query: -1, Detail: name, StartNS: acct.since(start), EndNS: acct.since(end)})
		}
		if err != nil {
			return fmt.Errorf("dynbench: flush %s: %w", name, err)
		}
		return nil
	}
	writeFile := func(name string, write func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	tr := rg.jt.Tracer()
	var (
		rep    *diag.Report
		series tsdb.Dump
		alerts tsdb.AlertsDump
		qd     qstats.Dump
	)
	archive := filepath.Join(dir, rn.plan.workload+".archive.gz")
	defer os.Remove(archive)
	defer os.Remove(filepath.Join(dir, rn.plan.workload+".qstats.json"))
	defer os.Remove(filepath.Join(dir, rn.plan.workload+".alerts.json"))
	err := stage("diag", &out.DiagS, func() error {
		rep = diag.FromTracer(tr)
		return nil
	})
	if err == nil {
		err = stage("tsdb", &out.TSDBS, func() error {
			rg.db.Flush()
			series, alerts = rg.db.Dump(), rg.db.AlertsDump()
			return writeFile(rn.plan.workload+".alerts.json", alerts.WriteJSON)
		})
	}
	if err == nil {
		err = stage("qstats", &out.QStatsS, func() error {
			qd = rg.qs.Dump()
			return writeFile(rn.plan.workload+".qstats.json", rg.qs.WriteJSON)
		})
	}
	if err == nil {
		err = stage("archive", &out.ArchiveS, func() error {
			a, err := runarchive.New(runarchive.Source{
				Label:        "dynbench " + rn.plan.workload,
				Tracer:       tr,
				Diagnosis:    rep,
				Queries:      &qd,
				Series:       &series,
				Alerts:       &alerts,
				VirtualTimeS: rg.eng.Now(),
				Config:       runarchive.RunConfig{Policy: hive.DefaultPolicy, ScanWorkers: scanWorkers, Seed: rn.opt.Seed},
			})
			if err != nil {
				return err
			}
			return a.WriteFile(archive)
		})
	}
	if err != nil {
		return err
	}
	st, err := os.Stat(archive)
	if err != nil {
		return err
	}
	out.ArchiveMB = float64(st.Size()) / 1e6
	return nil
}
