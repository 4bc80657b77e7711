package experiments

import (
	"fmt"

	"dynamicmr/internal/trace"
)

// Figure7Cell is one (sampling fraction, policy) heterogeneous
// measurement.
type Figure7Cell struct {
	Fraction float64
	Policy   string
	// SamplingThroughput and NonSamplingThroughput are jobs/hour per
	// class.
	SamplingThroughput    float64
	NonSamplingThroughput float64
	// LocalityPct and OccupancyPct support the §V-F comparison.
	LocalityPct  float64
	OccupancyPct float64
}

// Figure7Result holds a heterogeneous-workload study under one
// scheduler.
type Figure7Result struct {
	Opt       Options
	Scheduler string
	Cells     []Figure7Cell
}

// Figure7 reproduces the heterogeneous-workload experiment with the
// default FIFO scheduler (§V-E): users split into a Sampling class
// (predicate-based samples, uniform match distribution) and a
// Non-Sampling class (select-project scans at 0.05% selectivity); the
// Sampling fraction varies, and per-class throughput is measured for
// each policy the Sampling class might adopt.
func Figure7(opt Options) (*Figure7Result, error) {
	return heterogeneous(opt, false, "default (FIFO)")
}

// Figure8 repeats Figure 7 under the Fair Scheduler (§V-F), with a 5 s
// locality wait (delay scheduling).
func Figure8(opt Options) (*Figure7Result, error) {
	return heterogeneous(opt, true, "fair")
}

func heterogeneous(opt Options, fair bool, schedName string) (*Figure7Result, error) {
	type cellSpec struct {
		frac   float64
		policy string
	}
	var specs []cellSpec
	for _, frac := range opt.SamplingFractions {
		for _, pol := range opt.Policies {
			specs = append(specs, cellSpec{frac: frac, policy: pol})
		}
	}
	cells, err := sweep(opt, specs, func(sh *sweepShared, s cellSpec) (Figure7Cell, error) {
		cell, _, err := heterogeneousCell(opt, sh, fair, s.frac, s.policy)
		return cell, err
	})
	if err != nil {
		return nil, err
	}
	return &Figure7Result{Opt: opt, Scheduler: schedName, Cells: cells}, nil
}

// heterogeneousCell runs one (fraction, policy) cell, under the Fair
// Scheduler with a 5 s locality wait when fair, and returns its
// measurement and its utilization timeline. Both classes query a
// uniform match distribution (§V-E: "the predicate used for sampling
// jobs corresponds to a uniform distribution"; non-sampling queries
// are 0.05% select-project).
func heterogeneousCell(opt Options, sh *sweepShared, fair bool,
	frac float64, policy string) (Figure7Cell, []trace.MetricSample, error) {
	nSampling := int(frac*float64(opt.Users) + 0.5)
	if nSampling < 1 {
		nSampling = 1
	}
	if nSampling > opt.Users {
		nSampling = opt.Users
	}
	fig := "figure7"
	if fair {
		fig = "figure8"
	}
	c, results, timeline, err := opt.closedLoop(sh, loopCell{
		name:     fmt.Sprintf("%s_frac%g_%s", fig, frac, policy),
		table:    func(u int) string { return fmt.Sprintf("lineitem_u%d", u) },
		seedStep: 17,
		policy:   policy,
		sampling: nSampling,
		fair:     fair,
		figure:   true,
		params: map[string]string{
			"figure":   fig,
			"fraction": fmt.Sprintf("%g", frac),
			"users":    fmt.Sprintf("%d", opt.Users),
		},
	})
	if err != nil {
		return Figure7Cell{}, nil, err
	}
	_, _, occ := utilizationAverages(timeline, opt.WarmupS)
	samp, _ := results.Class("Sampling")
	scan, _ := results.Class("Non-Sampling")
	var locality float64
	if local, nonLocal := c.JobTracker().LocalityStats(); local+nonLocal > 0 {
		locality = 100 * float64(local) / float64(local+nonLocal)
	}
	return Figure7Cell{
		Fraction:              frac,
		Policy:                policy,
		SamplingThroughput:    samp.ThroughputJobsPerHour,
		NonSamplingThroughput: scan.ThroughputJobsPerHour,
		LocalityPct:           locality,
		OccupancyPct:          occ,
	}, timeline, nil
}

// Cell finds a measurement.
func (r *Figure7Result) Cell(frac float64, policy string) (Figure7Cell, bool) {
	for _, c := range r.Cells {
		if c.Fraction == frac && c.Policy == policy {
			return c, true
		}
	}
	return Figure7Cell{}, false
}

// Tables renders per-class throughput against the sampling fraction for
// each policy, plus the scheduler's locality/occupancy summary.
func (r *Figure7Result) Tables() []*Table {
	mk := func(label string, pick func(Figure7Cell) float64) *Table {
		t := &Table{
			Title:   fmt.Sprintf("%s class throughput (jobs/hour), %s scheduler", label, r.Scheduler),
			Columns: append([]string{"Sampling fraction"}, r.Opt.Policies...),
		}
		for _, f := range r.Opt.SamplingFractions {
			row := []any{f}
			for _, p := range r.Opt.Policies {
				c, _ := r.Cell(f, p)
				row = append(row, pick(c))
			}
			t.AddRow(row...)
		}
		return t
	}
	a := mk("Sampling", func(c Figure7Cell) float64 { return c.SamplingThroughput })
	a.Notes = append(a.Notes,
		"paper: sampling-class throughput rises with the sampling fraction; policy ordering matches the homogeneous study")
	b := mk("Non-Sampling", func(c Figure7Cell) float64 { return c.NonSamplingThroughput })
	b.Notes = append(b.Notes,
		"paper: non-sampling throughput is least when the sampling class uses Hadoop; LA vs Hadoop raises it ~3x at 20% sampling users and up to ~8x at 80%")

	s := &Table{
		Title:   fmt.Sprintf("Scheduler behaviour, %s scheduler", r.Scheduler),
		Columns: []string{"Sampling fraction", "Policy", "Locality (%)", "Slot occupancy (%)"},
		Notes:   []string{"paper §V-F: Fair Scheduler ~88% locality at ~18% occupancy; default scheduler ~57% at ~44%"},
	}
	for _, c := range r.Cells {
		s.AddRow(c.Fraction, c.Policy, c.LocalityPct, c.OccupancyPct)
	}
	return []*Table{a, b, s}
}
