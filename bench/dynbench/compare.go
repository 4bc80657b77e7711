package dynbench

// Verdicts of a comparison between a parent's runs and a change's.
const (
	Better     = "better"
	Worse      = "worse"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
)

// Comparison judges one (workload, metric) between two sets of runs.
type Comparison struct {
	OldQ1, OldMedian, OldQ3 float64
	NewQ1, NewMedian, NewQ3 float64
	// Change is the relative change of the medians, signed so that a
	// positive value is an improvement.
	Change float64
	// Wins counts the seeds on which the new run beat the old one, out
	// of Pairs seeds both sides ran.
	Wins, Pairs int
	Verdict     string
}

// Compare applies the benchmark's rule to the runs of one metric, keyed
// by seed. A change is worse when its median is worse by more than the
// bound. It is better when the medians differ by more than the old runs'
// own spread and the new run wins at least nine in ten seed pairs. When
// either side's spread (quartile distance over median) exceeds the bound
// the verdict is unresolved, unless every new run beats every old run.
func Compare(old, neu map[int64]float64, higherBetter bool, bound float64) Comparison {
	var c Comparison
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	ov, nv := values(old), values(neu)
	c.OldQ1, c.OldMedian, c.OldQ3 = Quartiles(ov)
	c.NewQ1, c.NewMedian, c.NewQ3 = Quartiles(nv)
	c.Change = sign * (c.NewMedian - c.OldMedian) / c.OldMedian
	for s, o := range old {
		if n, ok := neu[s]; ok {
			c.Pairs++
			if sign*(n-o) > 0 {
				c.Wins++
			}
		}
	}
	dominates := len(ov) > 0 && len(nv) > 0
	for _, o := range ov {
		for _, n := range nv {
			if sign*(n-o) <= 0 {
				dominates = false
			}
		}
	}
	oldSpread := (c.OldQ3 - c.OldQ1) / c.OldMedian
	newSpread := (c.NewQ3 - c.NewQ1) / c.NewMedian
	switch {
	case oldSpread > bound || newSpread > bound:
		c.Verdict = Unresolved
		if dominates {
			c.Verdict = Better
		}
	case c.Change < -bound:
		c.Verdict = Worse
	case c.Change > 0 && sign*(c.NewMedian-c.OldMedian) > c.OldQ3-c.OldQ1 && c.Wins*10 >= c.Pairs*9:
		c.Verdict = Better
	default:
		c.Verdict = Unchanged
	}
	return c
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
