package experiments

import (
	"fmt"

	"dynamicmr/internal/trace"
)

// Figure6Cell is one (policy, skew) multi-user measurement.
type Figure6Cell struct {
	Policy       string
	Z            float64
	Throughput   float64 // jobs/hour
	CPUUtilPct   float64
	DiskReadKBs  float64
	OccupancyPct float64
}

// Figure6Result holds the homogeneous multi-user study.
type Figure6Result struct {
	Opt   Options
	Cells []Figure6Cell
}

// Figure6 reproduces the homogeneous multi-user experiment (§V-D): 10
// closed-loop users, each repeatedly submitting the same sampling query
// against their own copy of the dataset, on the 16-slot-per-node
// cluster; throughput plus 30-second-interval CPU and disk readings per
// policy, for uniform and highly-skewed distributions.
func Figure6(opt Options) (*Figure6Result, error) {
	type cellSpec struct {
		z      float64
		policy string
	}
	var specs []cellSpec
	for _, z := range []float64{0, 2} {
		for _, pol := range opt.Policies {
			specs = append(specs, cellSpec{z: z, policy: pol})
		}
	}
	cells, err := sweep(opt, specs, func(sh *sweepShared, s cellSpec) (Figure6Cell, error) {
		cell, _, err := figure6Cell(opt, sh, s.z, s.policy)
		return cell, err
	})
	if err != nil {
		return nil, err
	}
	return &Figure6Result{Opt: opt, Cells: cells}, nil
}

// figure6Cell runs one (skew, policy) cell and returns its measurement
// and its utilization timeline.
func figure6Cell(opt Options, sh *sweepShared, z float64, policy string) (Figure6Cell, []trace.MetricSample, error) {
	_, results, timeline, err := opt.closedLoop(sh, loopCell{
		name:     fmt.Sprintf("figure6_z%g_%s", z, policy),
		table:    func(u int) string { return fmt.Sprintf("lineitem_u%d_z%g", u, z) },
		z:        z,
		seedStep: 13,
		policy:   policy,
		sampling: opt.Users,
		figure:   true,
		params: map[string]string{
			"figure": "6",
			"z":      fmt.Sprintf("%g", z),
			"users":  fmt.Sprintf("%d", opt.Users),
		},
	})
	if err != nil {
		return Figure6Cell{}, nil, err
	}
	cpu, disk, occ := utilizationAverages(timeline, opt.WarmupS)
	cs, _ := results.Class("Sampling")
	return Figure6Cell{
		Policy:       policy,
		Z:            z,
		Throughput:   cs.ThroughputJobsPerHour,
		CPUUtilPct:   cpu,
		DiskReadKBs:  disk,
		OccupancyPct: occ,
	}, timeline, nil
}

// Cell finds a measurement.
func (r *Figure6Result) Cell(policy string, z float64) (Figure6Cell, bool) {
	for _, c := range r.Cells {
		if c.Policy == policy && c.Z == z {
			return c, true
		}
	}
	return Figure6Cell{}, false
}

// Tables renders throughput, CPU and disk series per policy for the
// uniform and highly-skewed cases.
func (r *Figure6Result) Tables() []*Table {
	var out []*Table
	for _, z := range []float64{0, 2} {
		label := "uniform distribution"
		if z == 2 {
			label = "highly skewed distribution (z=2)"
		}
		t := &Table{
			Title:   fmt.Sprintf("Figure 6: homogeneous multi-user workload, %s", label),
			Columns: []string{"Policy", "Throughput (jobs/hour)", "CPU util (%)", "Disk reads (KB/s)", "Slot occupancy (%)"},
		}
		for _, p := range r.Opt.Policies {
			c, _ := r.Cell(p, z)
			t.AddRow(c.Policy, c.Throughput, c.CPUUtilPct, c.DiskReadKBs, c.OccupancyPct)
		}
		t.Notes = append(t.Notes,
			"paper: Hadoop gives the least throughput with the highest CPU/disk usage; throughput rises toward LA as GrabLimit shrinks; C slightly below LA",
		)
		if z == 2 {
			t.Notes = append(t.Notes, "paper: skew lowers throughput and raises resource usage for dynamic policies; Hadoop unaffected")
		}
		out = append(out, t)
	}
	return out
}
