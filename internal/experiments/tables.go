package experiments

import (
	"fmt"

	"dynamicmr/internal/core"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/skew"
	"dynamicmr/internal/tpch"
)

// TableI renders the policy definitions (paper Table I) from the
// default registry — i.e. the parsed policy.xml contents.
func TableI() *Table {
	t := &Table{
		Title:   "Table I: Policies for incremental processing of input",
		Columns: []string{"Policy", "Description", "Work Threshold (% total input)", "Grab Limit", "Eval Interval (s)"},
	}
	reg := core.DefaultRegistry()
	for _, name := range reg.Names() {
		p, _ := reg.Get(name)
		t.AddRow(p.Name, p.Description, p.WorkThresholdPct, p.GrabLimitExpr, p.EvaluationIntervalS)
	}
	t.Notes = append(t.Notes,
		"paper's MA/LA rows print '(AS < 0)?', a typo for AS > 0 per the §III-B prose")
	return t
}

// TableII renders dataset properties per scale (paper Table II):
// cardinality, size, and partition count for each generated LINEITEM
// dataset.
func TableII(opt Options) (*Table, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table II: Generated LINEITEM datasets",
		Columns: []string{"Scale", "Rows (M)", "Size (GB)", "Partitions", "Matches @0.05%"},
	}
	for _, s := range opt.Scales {
		rows := int64(s) * opt.rowsPerScale()
		bytes := rows * tpch.AvgRowBytes
		t.AddRow(
			fmt.Sprintf("%dx", s),
			float64(rows)/1e6,
			float64(bytes)/1e9,
			s*dataset.PartitionsPerScale,
			int64(float64(rows)*opt.Selectivity+0.5),
		)
	}
	t.Notes = append(t.Notes,
		"5x input partitions into 40 blocks, one per cluster disk (paper §V-B)")
	return t, nil
}

// TableIII renders the per-skew predicates (paper Table III): one
// predicate per Zipf exponent, overall selectivity fixed at 0.05%.
func TableIII() *Table {
	t := &Table{
		Title:   "Table III: Predicates and associated skew",
		Columns: []string{"Skew z", "Distribution", "Predicate", "Selectivity"},
	}
	for _, l := range dataset.SkewLevels() {
		t.AddRow(l.Z, l.Name, l.Predicate.String(), "0.05%")
	}
	t.Notes = append(t.Notes,
		"predicates target values outside the natural TPC-H domains so match placement is fully controlled",
	)
	return t
}

// Figure4 renders the distribution of matching records across the 40
// partitions of the 5x dataset for z = 0, 1, 2 (paper Figure 4:
// 15 000 matching records; z=2 concentrates ~8 700 in one partition,
// z=1 ~3 128).
func Figure4(opt Options) (*Table, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	const n = 40
	matches := int64(float64(5*opt.rowsPerScale())*opt.Selectivity + 0.5)
	zs := []float64{0, 1, 2}
	counts := make([][]int64, len(zs))
	if err := runCells(opt.Parallelism, len(zs), func(i int) error {
		counts[i] = skew.Counts(matches, zs[i], n, opt.Seed)
		return nil
	}); err != nil {
		return nil, err
	}
	byZ := map[float64][]int64{}
	for i, z := range zs {
		byZ[z] = counts[i]
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 4: matching records per partition, 5x input (%d matches, 40 partitions)", matches),
		Columns: []string{"Partition rank", "z=0", "z=1", "z=2"},
	}
	for k := 0; k < n; k++ {
		t.AddRow(k+1, byZ[0][k], byZ[1][k], byZ[2][k])
	}
	t.Notes = append(t.Notes,
		"paper: zero skew -> equal counts per partition; z=1 -> ~3128 in top partition; z=2 -> ~8700 in top partition (random draws, so ±10% run-to-run)",
	)
	return t, nil
}
