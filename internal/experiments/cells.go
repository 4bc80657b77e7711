package experiments

import (
	"fmt"

	"dynamicmr"
	"dynamicmr/internal/core"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/obs"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/sampling"
	"dynamicmr/internal/tpch"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/workload"
)

// The paper's evaluation is made of two kinds of run, and every figure
// and ablation cell is one of them: a single dynamic sampling job on
// an idle cluster (Figure 5, the single-user ablations) or a closed
// loop of users on the 16-slot cluster (Figures 6–8, the adaptive
// ablation's throughput half).

// singleJob is one single-user sampling job: the predicate-based sample
// of the lineitem_<scale>x_z<z> table under pol, its Input Provider
// seeded with seed and wrapped by wrap when set, and conf riding the
// job when set.
type singleJob struct {
	scale int
	z     float64
	pol   *core.Policy
	seed  int64
	wrap  func(core.InputProvider) core.InputProvider
	conf  *mapreduce.JobConf
}

// ablationJob is the single-user ablations' job: the largest scale's
// z-skewed table, with the provider seeded with Seed.
func (o Options) ablationJob(z float64, pol *core.Policy) singleJob {
	return singleJob{scale: o.Scales[len(o.Scales)-1], z: z, pol: pol, seed: o.Seed}
}

// singleUser runs j on a fresh idle cluster (4 map slots per node)
// built with opts and returns the cluster and the finished job's
// client. When alerting turns on the cluster's query registry, the job
// is registered with it before it runs: the job is submitted below the
// hive layer, and slo_burn rules need finished queries.
func (o Options) singleUser(sh *sweepShared, j singleJob, opts ...dynamicmr.Option) (*dynamicmr.Cluster, *core.JobClient, error) {
	ds, err := sh.cache.get(o.datasetSpec(j.scale, j.z, fmt.Sprintf("lineitem_%dx_z%g", j.scale, j.z), 0))
	if err != nil {
		return nil, nil, err
	}
	c, err := sh.cluster(opts...)
	if err != nil {
		return nil, nil, err
	}
	f, err := c.Load(ds.Name(), ds)
	if err != nil {
		return nil, nil, err
	}
	proj, err := tpch.LineItemSchema.Project("L_ORDERKEY", "L_PARTKEY", "L_SUPPKEY")
	if err != nil {
		return nil, nil, err
	}
	spec, err := sampling.NewJobSpec(ds.Predicate(), o.SampleK, proj, j.conf)
	if err != nil {
		return nil, nil, err
	}
	var provider core.InputProvider = sampling.NewProvider(o.SampleK, j.seed)
	if j.wrap != nil {
		provider = j.wrap(provider)
	}
	splits := mapreduce.SplitsForFile(f)
	client, err := core.SubmitDynamic(c.JobTracker(), spec, splits, provider, j.pol)
	if err != nil {
		return nil, nil, err
	}
	job := client.Job()
	if qs := c.QueryStats(); qs.Enabled() {
		qs.Register(qs.AllocID(), job, "", len(splits))
	}
	if !mapreduce.RunUntilDone(c.Engine(), job, 1e8) {
		return nil, nil, fmt.Errorf("experiments: single-user job stuck (z=%g scale=%d policy=%s)", j.z, j.scale, j.pol.Name)
	}
	if job.State() == mapreduce.StateFailed {
		return nil, nil, fmt.Errorf("experiments: single-user job failed (policy=%s): %s", j.pol.Name, job.Failure())
	}
	return c, client, nil
}

// loopCell is one closed-loop cell (§V-D): opt.Users users on the
// 16-slot-per-node cluster, each resubmitting its query as soon as the
// last one finishes, against its own copy of the dataset ("each works
// against a different copy").
type loopCell struct {
	// name names the cell in errors and, for a figure cell, its archive.
	name string
	// table names user u's dataset copy; its seed offset is
	// (u+1)*seedStep. Copies load in user order, which fixes DFS block
	// placement.
	table    func(u int) string
	z        float64
	seedStep int64
	// The first sampling users run LIMIT k samples under policy
	// (class Sampling); the others run the same select-project
	// unbounded (class Non-Sampling).
	policy   string
	sampling int
	fair     bool
	// figure marks a Figures 6–8 cell: observed, polling §V-D
	// utilization from the start of the run and archived with params.
	// The adaptive ablation's cells are none of these: the poll settles
	// the node accounts, so starting it there would move that table.
	figure bool
	params map[string]string
}

// closedLoop runs lc and returns its cluster, its per-class results and
// its utilization timeline (empty unless lc.figure).
func (o Options) closedLoop(sh *sweepShared, lc loopCell) (*dynamicmr.Cluster, workload.Results, []trace.MetricSample, error) {
	var opts []dynamicmr.Option
	if lc.figure {
		opts = o.observed(obs.DefaultIntervalS)
	}
	opts = append(opts, dynamicmr.WithMultiUserSlots())
	if lc.fair {
		opts = append(opts, dynamicmr.WithFairScheduler())
	}
	c, err := sh.cluster(opts...)
	if err != nil {
		return nil, workload.Results{}, nil, err
	}
	users := make([]*workload.User, o.Users)
	for u := range users {
		name := lc.table(u)
		ds, err := sh.cache.get(o.workloadSpec(lc.z, name, int64(u+1)*lc.seedStep))
		if err != nil {
			return nil, workload.Results{}, nil, err
		}
		if _, err := c.Load(name, ds); err != nil {
			return nil, workload.Results{}, nil, err
		}
		// A session seeds its split draws from its user name.
		sess := c.Session(fmt.Sprintf("user%d", u))
		user := &workload.User{
			Name:    fmt.Sprintf("user%d", u),
			Class:   "Non-Sampling",
			Query:   fmt.Sprintf("SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM %s WHERE %s", name, ds.Predicate()),
			Session: sess,
		}
		if u < lc.sampling {
			sess.Set("dynamic.job.policy", lc.policy)
			user.Class = "Sampling"
			user.Query += fmt.Sprintf(" LIMIT %d", o.SampleK)
		}
		users[u] = user
	}
	if lc.figure {
		// A sampled cluster polls already; an unsampled one starts here.
		c.JobTracker().SampleUtilization()
	}
	res, err := workload.Run(c.Engine(), users, workload.Config{WarmupS: o.WarmupS, MeasureS: o.MeasureS})
	if err != nil {
		return nil, workload.Results{}, nil, fmt.Errorf("%s: %w", lc.name, err)
	}
	timeline := c.JobTracker().UtilizationTimeline()
	if lc.figure {
		if err := o.archive(c, lc.name, runarchive.RunConfig{Policy: lc.policy, Params: lc.params}); err != nil {
			return nil, workload.Results{}, nil, err
		}
	}
	return c, res, timeline, nil
}
