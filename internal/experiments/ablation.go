package experiments

import (
	"fmt"

	"dynamicmr"
	"dynamicmr/internal/core"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/sampling"
	"dynamicmr/internal/tpch"
	"dynamicmr/internal/workload"
)

// The ablations probe the design choices DESIGN.md calls out beyond
// the paper's own figures: the evaluation interval and work threshold
// (§III-B's two cadence parameters), the grab-limit scale (the
// conservative/aggressive dial Table I samples at five points), and
// the §VII runtime-adaptive policy extension.

// singleUserRun executes one dynamic sampling job on a fresh idle
// cluster under the given policy and provider wrapping, returning the
// finished job and its client.
func (o Options) singleUserRun(sh *sweepShared, z float64, pol *core.Policy,
	wrap func(core.InputProvider) core.InputProvider, conf *mapreduce.JobConf, seed int64) (*core.JobClient, error) {
	scale := o.Scales[len(o.Scales)-1]
	ds, err := sh.cache.get(o.datasetSpec(scale, z, fmt.Sprintf("lineitem_%dx_z%g", scale, z), 0))
	if err != nil {
		return nil, err
	}
	c, err := sh.cluster()
	if err != nil {
		return nil, err
	}
	f, err := c.Load(ds.Name(), ds)
	if err != nil {
		return nil, err
	}
	proj, err := tpch.LineItemSchema.Project("L_ORDERKEY", "L_PARTKEY", "L_SUPPKEY")
	if err != nil {
		return nil, err
	}
	spec, err := sampling.NewJobSpec(ds.Predicate(), o.SampleK, proj, conf)
	if err != nil {
		return nil, err
	}
	var provider core.InputProvider = sampling.NewProvider(o.SampleK, seed)
	if wrap != nil {
		provider = wrap(provider)
	}
	client, err := core.SubmitDynamic(c.JobTracker(), spec, mapreduce.SplitsForFile(f), provider, pol)
	if err != nil {
		return nil, err
	}
	if !mapreduce.RunUntilDone(c.Engine(), client.Job(), 1e8) {
		return nil, fmt.Errorf("ablation job stuck under %s", pol.Name)
	}
	if client.Job().State() == mapreduce.StateFailed {
		return nil, fmt.Errorf("ablation job failed: %s", client.Job().Failure())
	}
	return client, nil
}

// AblationInterval sweeps the EvaluationInterval for the LA policy:
// too-short intervals buy little, too-long ones stall the job between
// increments (§III-B parameter 1).
func AblationInterval(opt Options) (*Table, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	sh := opt.newSweepShared()
	defer sh.close()
	base, err := core.DefaultRegistry().Get(core.PolicyLA)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: evaluation interval (LA policy, single user, moderate skew)",
		Columns: []string{"Interval (s)", "Response (s)", "Evaluations", "Partitions"},
		Notes: []string{
			"§III-B: short intervals re-evaluate needlessly; long intervals leave the job waiting after its input drains",
		},
	}
	intervals := []float64{1, 2, 4, 8, 16, 32}
	clients := make([]*core.JobClient, len(intervals))
	err = runCells(opt.parallelism(), len(intervals), func(i int) error {
		pol := &core.Policy{
			Name:                fmt.Sprintf("LA-%gs", intervals[i]),
			EvaluationIntervalS: intervals[i],
			WorkThresholdPct:    base.WorkThresholdPct,
			GrabLimitExpr:       base.GrabLimitExpr,
		}
		client, err := opt.singleUserRun(sh, 1, pol, nil, nil, opt.Seed)
		if err != nil {
			return err
		}
		clients[i] = client
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, client := range clients {
		j := client.Job()
		t.AddRow(intervals[i], j.ResponseTime(), client.Evaluations(), j.CompletedMaps())
	}
	return t, nil
}

// AblationThreshold sweeps the WorkThreshold (§III-B parameter 2) for
// a fixed interval and grab limit.
func AblationThreshold(opt Options) (*Table, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	sh := opt.newSweepShared()
	defer sh.close()
	t := &Table{
		Title:   "Ablation: work threshold (LA grab limit, 4s interval, single user, moderate skew)",
		Columns: []string{"Threshold (%)", "Response (s)", "Evaluations", "Partitions"},
		Notes: []string{
			"higher thresholds suppress provider consultations; the idle-liveness override keeps the job from stalling outright",
		},
	}
	thresholds := []float64{0, 5, 10, 15, 25, 50}
	clients := make([]*core.JobClient, len(thresholds))
	err := runCells(opt.parallelism(), len(thresholds), func(i int) error {
		pol := &core.Policy{
			Name:                fmt.Sprintf("LA-t%g", thresholds[i]),
			EvaluationIntervalS: 4,
			WorkThresholdPct:    thresholds[i],
			GrabLimitExpr:       "AS > 0 ? 0.2*AS : 0.1*TS",
		}
		client, err := opt.singleUserRun(sh, 1, pol, nil, nil, opt.Seed)
		if err != nil {
			return err
		}
		clients[i] = client
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, client := range clients {
		j := client.Job()
		t.AddRow(thresholds[i], j.ResponseTime(), client.Evaluations(), j.CompletedMaps())
	}
	return t, nil
}

// AblationGrabScale sweeps the grab-limit scale f in "f*AS": the
// continuous version of Table I's conservative-to-aggressive spectrum,
// measured single-user (where aggression wins) — the counterpart of
// Figure 5's discrete policy points.
func AblationGrabScale(opt Options) (*Table, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	sh := opt.newSweepShared()
	defer sh.close()
	t := &Table{
		Title:   "Ablation: grab-limit scale f (limit = f*AS, single user, high skew)",
		Columns: []string{"f", "Response (s)", "Partitions", "Records read (M)"},
		Notes: []string{
			"small f reads least but pays rounds; large f overcomes skew by covering more partitions per step (§V-C)",
		},
	}
	scales := []float64{0.05, 0.1, 0.2, 0.5, 1.0}
	clients := make([]*core.JobClient, len(scales))
	err := runCells(opt.parallelism(), len(scales), func(i int) error {
		pol := &core.Policy{
			Name:                fmt.Sprintf("f=%g", scales[i]),
			EvaluationIntervalS: 4,
			WorkThresholdPct:    0,
			GrabLimitExpr:       fmt.Sprintf("%g*AS", scales[i]),
		}
		client, err := opt.singleUserRun(sh, 2, pol, nil, nil, opt.Seed)
		if err != nil {
			return err
		}
		clients[i] = client
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, client := range clients {
		j := client.Job()
		t.AddRow(scales[i], j.ResponseTime(), j.CompletedMaps(), float64(j.Counters.MapInputRecords)/1e6)
	}
	return t, nil
}

// AblationAdaptive compares the §VII runtime-adaptive policy against
// fixed C and HA in the two regimes where each fixed policy wins: a
// single user on an idle cluster (HA territory) and a homogeneous
// multi-user workload (conservative territory). The adaptive job
// should land near the winner in both.
func AblationAdaptive(opt Options) (*Table, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	sh := opt.newSweepShared()
	defer sh.close()
	reg := core.DefaultRegistry()

	t := &Table{
		Title:   "Ablation: runtime-adaptive policy (§VII future work) vs fixed policies",
		Columns: []string{"Policy", "Idle-cluster response (s)", "Multi-user throughput (jobs/hour)"},
		Notes: []string{
			"adaptive should approach HA's response when idle and the conservative policies' throughput when shared",
		},
	}

	type row struct {
		name  string
		fixed string // registry policy, or "" for adaptive
	}
	rows := []row{{"C", core.PolicyC}, {"HA", core.PolicyHA}, {"Adaptive", ""}}

	type measurement struct {
		idle float64
		tp   float64
	}
	out := make([]measurement, len(rows))
	err := runCells(opt.parallelism(), len(rows), func(i int) error {
		r := rows[i]
		// Regime 1: idle cluster, single job.
		var client *core.JobClient
		var err error
		if r.fixed != "" {
			pol, perr := reg.Get(r.fixed)
			if perr != nil {
				return perr
			}
			client, err = opt.singleUserRun(sh, 1, pol, nil, nil, opt.Seed)
		} else {
			client, err = opt.singleUserRun(sh, 1, core.AdaptiveEnvelopePolicy(),
				func(p core.InputProvider) core.InputProvider { return core.NewAdaptiveProvider(p) }, nil, opt.Seed)
		}
		if err != nil {
			return err
		}
		out[i].idle = client.Job().ResponseTime()

		// Regime 2: homogeneous multi-user workload.
		polName := r.fixed
		if polName == "" {
			polName = "Adaptive"
		}
		tp, err := adaptiveWorkloadThroughput(opt, sh, polName)
		if err != nil {
			return err
		}
		out[i].tp = tp
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.AddRow(r.name, out[i].idle, out[i].tp)
	}
	return t, nil
}

// adaptiveWorkloadThroughput runs the Figure 6 homogeneous workload
// under the named policy ("Adaptive" routes through the adaptive
// provider) and returns jobs/hour.
func adaptiveWorkloadThroughput(opt Options, sh *sweepShared, policy string) (float64, error) {
	c, err := sh.cluster(dynamicmr.WithMultiUserSlots())
	if err != nil {
		return 0, err
	}
	users := make([]*workload.User, opt.Users)
	for u := 0; u < opt.Users; u++ {
		name := fmt.Sprintf("li_ad_u%d", u)
		ds, err := sh.cache.get(opt.workloadSpec(0, name, int64(u+1)*19))
		if err != nil {
			return 0, err
		}
		if _, err := c.Load(name, ds); err != nil {
			return 0, err
		}
		sess := c.Session(fmt.Sprintf("user%d", u))
		sess.Set("dynamic.job.policy", policy)
		users[u] = &workload.User{
			Name:  fmt.Sprintf("user%d", u),
			Class: "Sampling",
			Query: fmt.Sprintf("SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM %s WHERE %s LIMIT %d",
				name, ds.Predicate(), opt.SampleK),
			Session: sess,
		}
	}
	res, err := workload.Run(c.Engine(), users, workload.Config{WarmupS: opt.WarmupS, MeasureS: opt.MeasureS})
	if err != nil {
		return 0, err
	}
	cs, _ := res.Class("Sampling")
	return cs.ThroughputJobsPerHour, nil
}
