package main

import (
	"fmt"
	"io"
	"sort"

	"dynamicmr/bench/dynbench"
)

// printComparison prints, per workload and metric, both sides' medians
// and quartiles and the verdict under BENCHMARK.json's bound. Metrics
// without a bound (per-layer and observability) get medians only. It
// returns 1 when any end-to-end metric is worse.
func printComparison(w io.Writer, old, neu *suiteFile, bb benchBounds, oldName, newName string) int {
	bySeed := func(sf *suiteFile, workload, metric string) map[int64]float64 {
		m := map[int64]float64{}
		for _, r := range sf.Runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
				m[r.Seed] = v.Value
			}
		}
		return m
	}
	status := 0
	fmt.Fprintf(w, "old: %s (commit %s, %s, nproc %d)\nnew: %s (commit %s, %s, nproc %d)\n",
		oldName, old.Commit, old.Go, old.NProc, newName, neu.Commit, neu.Go, neu.NProc)
	fmt.Fprintf(w, "%-13s %-30s %30s %30s %8s %6s  %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "wins", "verdict")
	for _, wl := range dynbench.Workloads {
		bounded := map[string]bool{}
		for _, m := range bb.EndToEnd {
			bounded[m.Name] = true
			o, n := bySeed(old, wl, m.Name), bySeed(neu, wl, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			c := dynbench.Compare(o, n, m.Better == "higher", m.Bound)
			if c.Verdict == dynbench.Worse {
				status = 1
			}
			fmt.Fprintf(w, "%-13s %-30s %30s %30s %+7.1f%% %3d/%-2d  %s (bound %g%%)\n", wl, m.Name,
				quart(c.OldMedian, c.OldQ1, c.OldQ3), quart(c.NewMedian, c.NewQ1, c.NewQ3),
				100*c.Change, c.Wins, c.Pairs, c.Verdict, 100*m.Bound)
		}
		var rest []string
		for k := range old.Summary[wl] {
			if _, ok := neu.Summary[wl][k]; ok && !bounded[k] {
				rest = append(rest, k)
			}
		}
		sort.Strings(rest)
		for _, k := range rest {
			o, n := old.Summary[wl][k], neu.Summary[wl][k]
			fmt.Fprintf(w, "%-13s %-30s %30s %30s\n", wl, k, quart(o.Median, o.Q1, o.Q3), quart(n.Median, n.Q1, n.Q3))
		}
	}
	return status
}

func quart(med, q1, q3 float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
}
