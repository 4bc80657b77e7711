package experiments

import (
	"fmt"

	"dynamicmr/internal/core"
	"dynamicmr/internal/runarchive"
)

// Figure5Cell is one (skew, scale, policy) measurement.
type Figure5Cell struct {
	Z      float64
	Scale  int
	Policy string
	// ResponseS is the mean job response time over opt.Runs runs.
	ResponseS float64
	// PartitionsProcessed is the mean number of map tasks completed.
	PartitionsProcessed float64
	// SampleSize is the produced sample size (should equal k whenever
	// the dataset holds at least k matches).
	SampleSize float64
}

// Figure5Result holds the full single-user study.
type Figure5Result struct {
	Opt   Options
	Cells []Figure5Cell
}

// Figure5 reproduces the single-user experiment (§V-C): for every
// combination of dataset size, skew and policy, run a predicate-based
// sampling job on an otherwise idle cluster (4 map slots/node) and
// measure response time, averaged over opt.Runs runs; Figure 5(d)'s
// partitions-processed series comes from the same runs.
func Figure5(opt Options) (*Figure5Result, error) {
	type cellSpec struct {
		z      float64
		scale  int
		policy string
	}
	var specs []cellSpec
	for _, z := range []float64{0, 1, 2} {
		for _, scale := range opt.Scales {
			for _, polName := range opt.Policies {
				specs = append(specs, cellSpec{z: z, scale: scale, policy: polName})
			}
		}
	}
	reg := core.DefaultRegistry()
	cells, err := sweep(opt, specs, func(sh *sweepShared, s cellSpec) (Figure5Cell, error) {
		return figure5Cell(opt, sh, reg, s.z, s.scale, s.policy)
	})
	if err != nil {
		return nil, err
	}
	return &Figure5Result{Opt: opt, Cells: cells}, nil
}

// figure5Cell measures one (skew, scale, policy) combination over
// opt.Runs runs, each on a fresh idle cluster.
func figure5Cell(opt Options, sh *sweepShared, reg *core.Registry,
	z float64, scale int, polName string) (Figure5Cell, error) {
	pol, err := reg.Get(polName)
	if err != nil {
		return Figure5Cell{}, err
	}
	cell := Figure5Cell{Z: z, Scale: scale, Policy: pol.Name}
	for run := 0; run < opt.Runs; run++ {
		// Archive the cell's final run: single-user jobs are short, so a
		// 2 s cadence keeps the time-series dense (the report strides
		// long series back down, so paper mode stays viewable).
		last := run == opt.Runs-1
		samplingS := 0.0
		if last {
			samplingS = 2
		}
		j := singleJob{scale: scale, z: z, pol: pol, seed: opt.Seed + int64(run)*101 + int64(scale)}
		c, client, err := opt.singleUser(sh, j, opt.observed(samplingS)...)
		if err != nil {
			return Figure5Cell{}, err
		}
		job := client.Job()
		cell.ResponseS += job.ResponseTime()
		cell.PartitionsProcessed += float64(job.CompletedMaps())
		cell.SampleSize += float64(len(job.Output()))
		if last {
			name := fmt.Sprintf("figure5_z%g_%dx_%s", z, scale, pol.Name)
			if err := opt.archive(c, name, runarchive.RunConfig{
				Policy: pol.Name,
				Params: map[string]string{
					"figure": "5",
					"z":      fmt.Sprintf("%g", z),
					"scale":  fmt.Sprintf("%d", scale),
				},
			}); err != nil {
				return Figure5Cell{}, err
			}
		}
	}
	n := float64(opt.Runs)
	cell.ResponseS /= n
	cell.PartitionsProcessed /= n
	cell.SampleSize /= n
	return cell, nil
}

// Cell finds a measurement.
func (r *Figure5Result) Cell(z float64, scale int, policy string) (Figure5Cell, bool) {
	for _, c := range r.Cells {
		if c.Z == z && c.Scale == scale && c.Policy == policy {
			return c, true
		}
	}
	return Figure5Cell{}, false
}

// Tables renders Figure 5(a)–(c) (response time vs scale per policy,
// one table per skew) and Figure 5(d) (partitions processed, moderate
// skew).
func (r *Figure5Result) Tables() []*Table {
	var out []*Table
	skewName := map[float64]string{0: "(a) zero skew", 1: "(b) moderate skew", 2: "(c) high skew"}
	for _, z := range []float64{0, 1, 2} {
		t := &Table{
			Title:   fmt.Sprintf("Figure 5%s: response time (s) vs dataset size", skewName[z]),
			Columns: append([]string{"Scale"}, r.Opt.Policies...),
		}
		for _, scale := range r.Opt.Scales {
			row := []any{fmt.Sprintf("%dx", scale)}
			for _, p := range r.Opt.Policies {
				c, _ := r.Cell(z, scale, p)
				row = append(row, c.ResponseS)
			}
			t.AddRow(row...)
		}
		switch z {
		case 0:
			t.Notes = append(t.Notes, "paper: Hadoop response grows with input size; HA/MA fastest on idle cluster")
		case 2:
			t.Notes = append(t.Notes, "paper: conservatism has its worst effect under high skew; Hadoop unaffected by skew")
		}
		out = append(out, t)
	}
	d := &Table{
		Title:   "Figure 5(d): partitions processed per job (moderate skew)",
		Columns: append([]string{"Scale"}, r.Opt.Policies...),
		Notes:   []string{"paper: partitions processed under Hadoop is much higher than under any dynamic policy"},
	}
	for _, scale := range r.Opt.Scales {
		row := []any{fmt.Sprintf("%dx", scale)}
		for _, p := range r.Opt.Policies {
			c, _ := r.Cell(1, scale, p)
			row = append(row, c.PartitionsProcessed)
		}
		d.AddRow(row...)
	}
	out = append(out, d)
	return out
}
