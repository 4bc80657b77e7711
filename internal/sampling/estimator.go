package sampling

import (
	"fmt"
	"math"

	"dynamicmr/internal/core"
	"dynamicmr/internal/data"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/mapreduce"
)

// Selectivity estimation is the second application of the incremental
// mechanism, realising §VI's suggestion (after Babu [3]) of "an
// efficient sampling harness that could be used to build partial
// statistics": a dynamic job consumes randomly-ordered partitions
// until the normal-approximation confidence interval around the
// observed match rate is tight enough, then stops — no fixed sample
// size, no full scan.

// CounterMatches is the user counter the counting mapper reports match
// counts under.
const CounterMatches = "estimator.matches"

// CountSource is implemented by sources that can report the match
// count for a fingerprinted predicate without scanning (the dataset
// package's planted partitions).
type CountSource interface {
	AcceleratedMatchCount(fingerprint string) (int64, bool)
}

// CountingMapper evaluates the predicate over its split and reports
// only the match count (via user counter), emitting no records — the
// cheapest possible statistics pass.
type CountingMapper struct {
	// Predicate is the condition whose selectivity is being estimated.
	Predicate expr.Expr
}

// Map implements mapreduce.Mapper.
func (m *CountingMapper) Map(rec data.Record, out *mapreduce.Collector) error {
	ok, err := expr.EvalBool(m.Predicate, rec)
	if err != nil {
		return err
	}
	if ok {
		out.Inc(CounterMatches, 1)
	}
	return nil
}

// MapSplit implements mapreduce.SplitMapper with count acceleration.
func (m *CountingMapper) MapSplit(ctx *mapreduce.TaskContext, out *mapreduce.Collector) error {
	if cs, ok := ctx.Source.(CountSource); ok {
		if n, hit := cs.AcceleratedMatchCount(m.Predicate.String()); hit {
			out.Inc(CounterMatches, n)
			return nil
		}
	}
	return expr.ScanFilter(ctx.Source, m.Predicate, nil, func(data.Record) bool {
		out.Inc(CounterMatches, 1)
		return true
	})
}

// Estimate is the harness's result.
type Estimate struct {
	// Selectivity is the estimated match fraction p̂.
	Selectivity float64
	// Matches and Records are the observed totals.
	Matches int64
	Records int64
	// HalfWidth is the final confidence-interval half width (absolute).
	HalfWidth float64
	// RelativeError is HalfWidth / Selectivity.
	RelativeError float64
}

// EstimatorProvider is the statistics-harness Input Provider: it keeps
// adding randomly-chosen partitions (within the policy's grab limit)
// until the estimate p̂ = matches/records satisfies
//
//	z · sqrt(p̂(1-p̂)/records) ≤ MaxRelErr · p̂
//
// with at least MinMatches matches observed (so zero-match prefixes
// don't terminate the job with a degenerate interval).
type EstimatorProvider struct {
	// MaxRelErr is the target relative half-width (e.g. 0.1 = ±10%).
	MaxRelErr float64
	// Confidence selects z: 0 means 95% (z = 1.96).
	Confidence float64
	// MinMatches guards against early termination (default 30).
	MinMatches int64
	// Seed drives the random partition order.
	Seed int64

	splits []mapreduce.Split
	cursor int
}

// NewEstimatorProvider builds the provider for a target relative error.
func NewEstimatorProvider(maxRelErr float64, seed int64) *EstimatorProvider {
	return &EstimatorProvider{MaxRelErr: maxRelErr, Seed: seed}
}

// z returns the normal quantile for the configured confidence.
func (p *EstimatorProvider) z() float64 {
	switch p.Confidence {
	case 0, 0.95:
		return 1.96
	case 0.90:
		return 1.645
	case 0.99:
		return 2.576
	default:
		// Coarse fallback for other confidences.
		return 1.96
	}
}

// Init implements core.InputProvider.
func (p *EstimatorProvider) Init(all []mapreduce.Split, conf *mapreduce.JobConf) error {
	if p.MaxRelErr <= 0 || p.MaxRelErr >= 1 {
		return fmt.Errorf("sampling: estimator MaxRelErr %v outside (0,1)", p.MaxRelErr)
	}
	if p.MinMatches == 0 {
		p.MinMatches = 30
	}
	p.splits = append([]mapreduce.Split(nil), all...)
	shuffleSplits(p.splits, p.Seed)
	// Informed ordering biases the estimator: the early prefix
	// over-represents match-rich partitions, so p̂ starts high and the
	// stopping rule can fire sooner than a uniform draw justifies. That
	// is the flag's explicit trade (fast biased statistics); leave the
	// flag off for unbiased estimates.
	if fp, ok := informedGrab(conf); ok {
		informedOrder(p.splits, fp)
	}
	p.cursor = 0
	return nil
}

// InitialSplits implements core.InputProvider. Grabs beyond the
// remaining unscanned splits clamp to the remainder (see take): no
// split is duplicated or dropped under any ordering.
func (p *EstimatorProvider) InitialSplits(grab int) []mapreduce.Split {
	return p.take(grab)
}

// take clamps n to [0, remaining] and advances the cursor; see
// Provider.take for the no-duplicate/no-drop contract.
func (p *EstimatorProvider) take(n int) []mapreduce.Split {
	if n < 0 {
		n = 0
	}
	if rem := len(p.splits) - p.cursor; n > rem {
		n = rem
	}
	out := p.splits[p.cursor : p.cursor+n]
	p.cursor += n
	return out
}

// Estimate is p̂ = matches/records with its normal-approximation
// interval. The stopping rule applies it to each report's counters, and
// a caller applies it to the job's final counters, so an estimate and
// its error always come from one set of counters.
func (p *EstimatorProvider) Estimate(matches, records int64) Estimate {
	est := Estimate{Matches: matches, Records: records}
	if records > 0 {
		phat := float64(matches) / float64(records)
		est.Selectivity = phat
		est.HalfWidth = p.z() * math.Sqrt(phat*(1-phat)/float64(records))
		if phat > 0 {
			est.RelativeError = est.HalfWidth / phat
		}
	}
	return est
}

// Next implements core.InputProvider.
func (p *EstimatorProvider) Next(rep core.Report) (core.Response, []mapreduce.Split) {
	est := p.Estimate(rep.Job.UserCounters[CounterMatches], rep.Job.MapInputRecords)
	if est.Selectivity > 0 && est.Matches >= p.MinMatches && est.RelativeError <= p.MaxRelErr {
		return core.EndOfInput, nil
	}
	if p.cursor >= len(p.splits) {
		return core.EndOfInput, nil
	}
	if rep.GrabLimit <= 0 {
		return core.NoInputAvailable, nil
	}
	// Feed within the allowance; without a stopping-rule hit, keep
	// sampling partitions.
	return core.InputAvailable, p.take(rep.GrabLimit)
}

// NewEstimationJobSpec assembles the counting job for a predicate.
func NewEstimationJobSpec(pred expr.Expr, conf *mapreduce.JobConf) (mapreduce.JobSpec, error) {
	if pred == nil {
		return mapreduce.JobSpec{}, fmt.Errorf("sampling: predicate required")
	}
	if conf == nil {
		conf = mapreduce.NewJobConf()
	}
	conf.Set(mapreduce.ConfPredicate, pred.String())
	conf.SetInt(mapreduce.ConfNumReduces, 1)
	return mapreduce.JobSpec{
		Conf:      conf,
		NewMapper: func(*mapreduce.JobConf) mapreduce.Mapper { return &CountingMapper{Predicate: pred} },
		// The match count is a function of only the matching records, so
		// skip/index reads leave it unchanged. (The job stays un-memoised:
		// its value is the counter, not the empty output.)
		FilterFingerprint: pred.String(),
	}, nil
}

var _ core.InputProvider = (*EstimatorProvider)(nil)
