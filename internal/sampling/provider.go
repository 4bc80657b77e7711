package sampling

import (
	"fmt"
	"math"
	"sort"

	"dynamicmr/internal/core"
	"dynamicmr/internal/mapreduce"
)

// informedOrder stably reorders already-shuffled splits so the
// statistically promising ones (more zone-map matches for the
// fingerprinted predicate) are grabbed first. Splits without statistics
// rank as zero matches; the sort is stable, so ties — including every
// split of a stat-less input — keep their shuffled relative order. Used
// only behind the index input-path flag: grabbing hot partitions first
// changes the policy game (observed selectivity is biased upward early,
// so providers estimate from a non-uniform prefix), which is precisely
// the informed-grab trade the flag opts into.
func informedOrder(splits []mapreduce.Split, fingerprint string) {
	matches := func(s mapreduce.Split) int64 {
		if st, ok := s.Block.BlockStats(fingerprint); ok {
			return st.Matches
		}
		return 0
	}
	sort.SliceStable(splits, func(i, j int) bool {
		return matches(splits[i]) > matches(splits[j])
	})
}

// splitDraw is the split order both Input Providers hand out: a copy
// of the input shuffled with the provider's seed (§IV: "the initial
// input and all subsequent increments are chosen randomly with a
// uniform distribution from the set of un-processed input
// partitions"), reordered by informedOrder under the index input path,
// and a cursor over it. Its InitialSplits implements
// core.InputProvider's for both.
type splitDraw struct {
	splits []mapreduce.Split
	cursor int // splits[:cursor] have been handed out
}

// draw replaces the order with a fresh draw of all.
func (d *splitDraw) draw(all []mapreduce.Split, seed int64, conf *mapreduce.JobConf) {
	d.splits = append([]mapreduce.Split(nil), all...)
	shuffleSplits(d.splits, seed)
	if conf != nil && conf.Get(mapreduce.ConfInputPath, "") == mapreduce.InputPathIndex {
		if fp := conf.Get(mapreduce.ConfPredicate, ""); fp != "" {
			informedOrder(d.splits, fp)
		}
	}
	d.cursor = 0
}

// InitialSplits hands out the first grab splits. Like every grab, a
// grab larger than the remaining unscanned splits is clamped to the
// remainder (see take): under any ordering — shuffled or informed —
// each split is handed out exactly once, never duplicated or dropped.
func (d *splitDraw) InitialSplits(grab int) []mapreduce.Split {
	return d.take(grab)
}

// Remaining returns the number of partitions not yet handed out.
func (d *splitDraw) Remaining() int { return len(d.splits) - d.cursor }

// take advances the cursor over the split order and returns the next n
// splits. n is clamped to [0, Remaining()]: a grab exceeding the
// unscanned remainder returns exactly the remainder, so the union of
// all grabs is the exact input set with no duplicates and no drops.
func (d *splitDraw) take(n int) []mapreduce.Split {
	if n < 0 {
		n = 0
	}
	if rem := d.Remaining(); n > rem {
		n = rem
	}
	out := d.splits[d.cursor : d.cursor+n]
	d.cursor += n
	return out
}

// Provider is the sampling Input Provider (§IV). It draws increments
// uniformly at random from the unprocessed partitions (randomising the
// produced sample), estimates predicate selectivity from the counters
// of finished maps, accounts for the expected output of in-flight maps,
// and converts the remaining match deficit into a number of splits —
// bounded by the policy's grab limit at each step.
type Provider struct {
	// K is the required sample size; it must be positive.
	K int64
	// Seed drives the random split order.
	Seed int64

	splitDraw
}

// NewProvider creates a provider for sample size k.
func NewProvider(k int64, seed int64) *Provider {
	return &Provider{K: k, Seed: seed}
}

// Init implements core.InputProvider: receive the complete input
// partition set and draw its random order.
func (p *Provider) Init(all []mapreduce.Split, conf *mapreduce.JobConf) error {
	if p.K <= 0 {
		return fmt.Errorf("sampling: provider needs a positive sample size")
	}
	p.draw(all, p.Seed, conf)
	return nil
}

// Next implements core.InputProvider — the §IV estimation procedure.
func (p *Provider) Next(rep core.Report) (core.Response, []mapreduce.Split) {
	js := rep.Job

	// Favorable case: enough map output has been produced already.
	if js.MapOutputRecords >= p.K {
		return core.EndOfInput, nil
	}
	// Nothing left to add: close input; the job finishes with whatever
	// matches exist.
	if p.Remaining() == 0 {
		return core.EndOfInput, nil
	}

	grab := rep.GrabLimit
	if grab <= 0 {
		// Policy forbids growth right now (e.g. C with zero available
		// slots): wait and see.
		return core.NoInputAvailable, nil
	}

	// No finished maps yet: no statistics to estimate from. Feed the
	// allowance rather than stall.
	if js.CompletedMaps == 0 || js.MapInputRecords == 0 {
		return core.InputAvailable, p.take(grab)
	}

	// Estimated predicate selectivity ρ̂ from finished maps.
	rho := float64(js.MapOutputRecords) / float64(js.MapInputRecords)

	// Expected records per split, from the observed splits (§IV: "given
	// the splits and the total input records processed so far, the
	// Input Provider computes the expected number of records in each
	// split").
	recsPerSplit := float64(js.MapInputRecords) / float64(js.CompletedMaps)

	// Expected output from pending (scheduled but unfinished) maps.
	pendingMaps := js.ScheduledMaps - js.CompletedMaps
	expectedPending := float64(pendingMaps) * recsPerSplit * rho

	deficit := float64(p.K-js.MapOutputRecords) - expectedPending
	if deficit <= 0 {
		// In-flight work should already cover the sample: wait and see.
		return core.NoInputAvailable, nil
	}

	var splitsNeeded int
	if rho <= 0 {
		// No matches seen yet; no basis for an estimate. Keep feeding
		// within the allowance.
		splitsNeeded = grab
	} else {
		recordsNeeded := deficit / rho
		splitsNeeded = int(math.Ceil(recordsNeeded / recsPerSplit))
		if splitsNeeded < 1 {
			splitsNeeded = 1
		}
	}
	if splitsNeeded > grab {
		splitsNeeded = grab
	}
	return core.InputAvailable, p.take(splitsNeeded)
}

var _ core.InputProvider = (*Provider)(nil)
