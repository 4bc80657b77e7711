package experiments

import (
	"fmt"

	"dynamicmr/internal/core"
)

// The ablations probe the design choices DESIGN.md calls out beyond
// the paper's own figures: the evaluation interval and work threshold
// (§III-B's two cadence parameters), the grab-limit scale (the
// conservative/aggressive dial Table I samples at five points), and
// the §VII runtime-adaptive policy extension.

// policySweep runs the single-user job once per point on the z-skewed
// table, under the policy pol builds for that point, and adds row's
// cells for each point to t in point order. It is the body of the
// interval, threshold and grab-scale ablations.
func policySweep(opt Options, t *Table, z float64, points []float64,
	pol func(x float64) *core.Policy, row func(x float64, client *core.JobClient) []any) (*Table, error) {
	clients, err := sweep(opt, points, func(sh *sweepShared, x float64) (*core.JobClient, error) {
		_, client, err := opt.singleUser(sh, opt.ablationJob(z, pol(x)))
		return client, err
	})
	if err != nil {
		return nil, err
	}
	for i, client := range clients {
		t.AddRow(row(points[i], client)...)
	}
	return t, nil
}

// evaluationsRow is the interval and threshold ablations' row: the
// point, response time, provider evaluations and partitions processed.
func evaluationsRow(x float64, client *core.JobClient) []any {
	j := client.Job()
	return []any{x, j.ResponseTime(), client.Evaluations(), j.CompletedMaps()}
}

// AblationInterval sweeps the EvaluationInterval for the LA policy:
// too-short intervals buy little, too-long ones stall the job between
// increments (§III-B parameter 1).
func AblationInterval(opt Options) (*Table, error) {
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
	return policySweep(opt, t, 1, []float64{1, 2, 4, 8, 16, 32}, func(x float64) *core.Policy {
		return &core.Policy{
			Name:                fmt.Sprintf("LA-%gs", x),
			EvaluationIntervalS: x,
			WorkThresholdPct:    base.WorkThresholdPct,
			GrabLimitExpr:       base.GrabLimitExpr,
		}
	}, evaluationsRow)
}

// AblationThreshold sweeps the WorkThreshold (§III-B parameter 2) for
// a fixed interval and grab limit.
func AblationThreshold(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Ablation: work threshold (LA grab limit, 4s interval, single user, moderate skew)",
		Columns: []string{"Threshold (%)", "Response (s)", "Evaluations", "Partitions"},
		Notes: []string{
			"higher thresholds suppress provider consultations; the idle-liveness override keeps the job from stalling outright",
		},
	}
	return policySweep(opt, t, 1, []float64{0, 5, 10, 15, 25, 50}, func(x float64) *core.Policy {
		return &core.Policy{
			Name:                fmt.Sprintf("LA-t%g", x),
			EvaluationIntervalS: 4,
			WorkThresholdPct:    x,
			GrabLimitExpr:       "AS > 0 ? 0.2*AS : 0.1*TS",
		}
	}, evaluationsRow)
}

// AblationGrabScale sweeps the grab-limit scale f in "f*AS": the
// continuous version of Table I's conservative-to-aggressive spectrum,
// measured single-user (where aggression wins) — the counterpart of
// Figure 5's discrete policy points.
func AblationGrabScale(opt Options) (*Table, error) {
	t := &Table{
		Title:   "Ablation: grab-limit scale f (limit = f*AS, single user, high skew)",
		Columns: []string{"f", "Response (s)", "Partitions", "Records read (M)"},
		Notes: []string{
			"small f reads least but pays rounds; large f overcomes skew by covering more partitions per step (§V-C)",
		},
	}
	return policySweep(opt, t, 2, []float64{0.05, 0.1, 0.2, 0.5, 1.0}, func(x float64) *core.Policy {
		return &core.Policy{
			Name:                fmt.Sprintf("f=%g", x),
			EvaluationIntervalS: 4,
			WorkThresholdPct:    0,
			GrabLimitExpr:       fmt.Sprintf("%g*AS", x),
		}
	}, func(x float64, client *core.JobClient) []any {
		j := client.Job()
		return []any{x, j.ResponseTime(), j.CompletedMaps(), float64(j.Counters.MapInputRecords) / 1e6}
	})
}

// AblationAdaptive compares the §VII runtime-adaptive policy against
// fixed C and HA in the two regimes where each fixed policy wins: a
// single user on an idle cluster (HA territory) and a homogeneous
// multi-user workload (conservative territory). The adaptive job
// should land near the winner in both.
func AblationAdaptive(opt Options) (*Table, error) {
	reg := core.DefaultRegistry()
	t := &Table{
		Title:   "Ablation: runtime-adaptive policy (§VII future work) vs fixed policies",
		Columns: []string{"Policy", "Idle-cluster response (s)", "Multi-user throughput (jobs/hour)"},
		Notes: []string{
			"adaptive should approach HA's response when idle and the conservative policies' throughput when shared",
		},
	}
	// The fixed rows name a registry policy; "Adaptive" routes through
	// the adaptive provider in both regimes.
	rows := []string{core.PolicyC, core.PolicyHA, "Adaptive"}
	type measurement struct {
		idle float64
		tp   float64
	}
	out, err := sweep(opt, rows, func(sh *sweepShared, policy string) (measurement, error) {
		// Regime 1: idle cluster, single job.
		var j singleJob
		if policy == "Adaptive" {
			j = opt.ablationJob(1, core.AdaptiveEnvelopePolicy())
			j.wrap = func(p core.InputProvider) core.InputProvider { return core.NewAdaptiveProvider(p) }
		} else {
			pol, err := reg.Get(policy)
			if err != nil {
				return measurement{}, err
			}
			j = opt.ablationJob(1, pol)
		}
		_, client, err := opt.singleUser(sh, j)
		if err != nil {
			return measurement{}, err
		}
		// Regime 2: the homogeneous multi-user workload of Figure 6.
		_, res, _, err := opt.closedLoop(sh, loopCell{
			name:     "ablation adaptive (" + policy + ")",
			table:    func(u int) string { return fmt.Sprintf("li_ad_u%d", u) },
			seedStep: 19,
			policy:   policy,
			sampling: opt.Users,
		})
		if err != nil {
			return measurement{}, err
		}
		cs, _ := res.Class("Sampling")
		return measurement{idle: client.Job().ResponseTime(), tp: cs.ThroughputJobsPerHour}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, policy := range rows {
		t.AddRow(policy, out[i].idle, out[i].tp)
	}
	return t, nil
}
