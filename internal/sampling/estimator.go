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

// The estimator's stopping rule: a 95% normal-approximation interval,
// and at least minMatches matches observed, so zero-match prefixes
// don't terminate the job with a degenerate interval.
const (
	z95        = 1.96
	minMatches = 30
)

// EstimatorProvider is the statistics-harness Input Provider: it keeps
// adding randomly-chosen partitions (within the policy's grab limit)
// until the estimate p̂ = matches/records satisfies
//
//	z95 · sqrt(p̂(1-p̂)/records) ≤ MaxRelErr · p̂
//
// with at least minMatches matches observed.
type EstimatorProvider struct {
	// MaxRelErr is the target relative half-width (e.g. 0.1 = ±10%).
	MaxRelErr float64
	// Seed drives the random partition order.
	Seed int64

	splitDraw
}

// NewEstimatorProvider builds the provider for a target relative error.
func NewEstimatorProvider(maxRelErr float64, seed int64) *EstimatorProvider {
	return &EstimatorProvider{MaxRelErr: maxRelErr, Seed: seed}
}

// Init implements core.InputProvider. Informed ordering biases the
// estimator: the early prefix over-represents match-rich partitions, so
// p̂ starts high and the stopping rule can fire sooner than a uniform
// draw justifies. That is the index input path's explicit trade (fast
// biased statistics); leave it off for unbiased estimates.
func (p *EstimatorProvider) Init(all []mapreduce.Split, conf *mapreduce.JobConf) error {
	if p.MaxRelErr <= 0 || p.MaxRelErr >= 1 {
		return fmt.Errorf("sampling: estimator MaxRelErr %v outside (0,1)", p.MaxRelErr)
	}
	p.draw(all, p.Seed, conf)
	return nil
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
		est.HalfWidth = z95 * math.Sqrt(phat*(1-phat)/float64(records))
		if phat > 0 {
			est.RelativeError = est.HalfWidth / phat
		}
	}
	return est
}

// Next implements core.InputProvider.
func (p *EstimatorProvider) Next(rep core.Report) (core.Response, []mapreduce.Split) {
	est := p.Estimate(rep.Job.UserCounters[CounterMatches], rep.Job.MapInputRecords)
	if est.Selectivity > 0 && est.Matches >= minMatches && est.RelativeError <= p.MaxRelErr {
		return core.EndOfInput, nil
	}
	if p.Remaining() == 0 {
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
