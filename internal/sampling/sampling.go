// Package sampling implements predicate-based sampling as a MapReduce
// job (paper §II-B) plus the sampling Input Provider (§IV): the map
// logic emits up to k predicate-satisfying records under a dummy key
// (Algorithm 1), the single reduce selects the first k (Algorithm 2),
// and the provider converts observed selectivity into split-count
// increments bounded by the policy's grab limit.
package sampling

import (
	"fmt"
	"strings"

	"dynamicmr/internal/data"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/mapreduce"
)

// DummyKey is the single intermediate key shared by all map outputs, so
// the lone reduce task receives one (key, list) pair (§II-B).
const DummyKey = "k_dummy"

// AcceleratedSource is implemented by record sources that can return
// the matching records for a known predicate without a full scan (the
// dataset package's planted partitions). The runtime charges full-scan
// I/O and CPU regardless; this only short-cuts the *real* record
// iteration, and tests verify byte-identical equivalence with scanning.
type AcceleratedSource interface {
	AcceleratedMatches(predicateFingerprint string, limit int64) ([]data.Record, bool)
}

// ProjectedSource is an AcceleratedSource that can also build only a
// projection of each match: ProjectedMatches returns what
// AcceleratedMatches would, each record projected to proj (nil: whole
// records).
type ProjectedSource interface {
	ProjectedMatches(predicateFingerprint string, limit int64, proj *data.Schema) ([]data.Record, bool)
}

// Mapper is Algorithm 1: for each input record, if fewer than k records
// have been found so far and the record satisfies the predicate, emit
// (k_dummy, record). It implements mapreduce.SplitMapper to exploit
// accelerated sources.
type Mapper struct {
	// Predicate is the sampling condition.
	Predicate expr.Expr
	// K is the required sample size; each map task emits at most K
	// pairs, since no other task is guaranteed to contribute any.
	K int64
	// Projection, when non-nil, is applied to each emitted record (the
	// Hive SELECT list).
	Projection *data.Schema

	fingerprint string // Predicate.String(), when the factory rendered it
	found       int64
}

// NewMapperFactory returns a mapreduce.JobSpec mapper factory for the
// predicate/k/projection triple. It renders the predicate's fingerprint
// once, for every map task of the job.
func NewMapperFactory(pred expr.Expr, k int64, projection *data.Schema) func(*mapreduce.JobConf) mapreduce.Mapper {
	fp := pred.String()
	return func(*mapreduce.JobConf) mapreduce.Mapper {
		return &Mapper{Predicate: pred, K: k, Projection: projection, fingerprint: fp}
	}
}

// Map implements Algorithm 1's per-record body.
func (m *Mapper) Map(rec data.Record, out *mapreduce.Collector) error {
	if m.found >= m.K {
		return nil
	}
	ok, err := expr.EvalBool(m.Predicate, rec)
	if err != nil {
		return fmt.Errorf("sampling: predicate: %w", err)
	}
	if ok {
		if m.Projection != nil {
			rec = rec.Project(m.Projection)
		}
		out.Emit(DummyKey, rec)
		m.found++
	}
	return nil
}

// MapSplit implements mapreduce.SplitMapper: it uses the accelerated
// match path when the split's source supports this predicate, falling
// back to a filtered scan (expr.ScanFilter) otherwise. A ProjectedSource
// and the scan build the Projection themselves, so their matches are
// emitted as they come.
func (m *Mapper) MapSplit(ctx *mapreduce.TaskContext, out *mapreduce.Collector) error {
	if matches, hit := m.accelerated(ctx.Source); hit {
		out.Grow(len(matches))
		for _, rec := range matches {
			if m.found >= m.K {
				break
			}
			out.Emit(DummyKey, rec)
			m.found++
		}
		return nil
	}
	if m.found >= m.K {
		return nil
	}
	err := expr.ScanFilter(ctx.Source, m.Predicate, m.Projection, func(rec data.Record) bool {
		out.Emit(DummyKey, rec)
		m.found++
		return m.found < m.K
	})
	if err != nil {
		return fmt.Errorf("sampling: predicate: %w", err)
	}
	return nil
}

// accelerated returns the split's first K matches, projected, when src
// offers the accelerated path for the predicate: from ProjectedMatches
// if src has it, else from AcceleratedMatches, projected here.
func (m *Mapper) accelerated(src data.Source) ([]data.Record, bool) {
	fp := m.fingerprint
	if fp == "" {
		fp = m.Predicate.String()
	}
	if ps, ok := src.(ProjectedSource); ok {
		return ps.ProjectedMatches(fp, m.K, m.Projection)
	}
	acc, ok := src.(AcceleratedSource)
	if !ok {
		return nil, false
	}
	matches, hit := acc.AcceleratedMatches(fp, m.K)
	if hit && m.Projection != nil {
		for i, rec := range matches {
			matches[i] = rec.Project(m.Projection)
		}
	}
	return matches, hit
}

// Reducer is Algorithm 2: receive the single (k_dummy, list) pair and
// output the first k values — or, with Random set, a uniform random k
// of them (the paper's footnote 1 variant, via reservoir sampling).
//
// Without Random it is a mapreduce.PrefixReducer: the runtime copies
// the first k pairs straight from the shuffled map runs and never calls
// Reduce. Reduce stays the reference for that path, the entry point for
// direct callers, and the random path.
type Reducer struct {
	// K is the required sample size.
	K int64
	// Random selects a uniform random k instead of the first k.
	Random bool
	// Seed drives the random selection.
	Seed int64
}

// NewReducerFactory returns a reducer factory for sample size k,
// honouring the sampling.random / sampling.random.seed conf keys.
func NewReducerFactory(k int64) func(*mapreduce.JobConf) mapreduce.Reducer {
	return func(conf *mapreduce.JobConf) mapreduce.Reducer {
		r := &Reducer{K: k}
		if conf != nil {
			r.Random = conf.GetBool(mapreduce.ConfRandomSample, false)
			r.Seed = conf.GetInt(mapreduce.ConfRandomSeed, 1)
		}
		return r
	}
}

// PrefixLimit implements mapreduce.PrefixReducer: the first K values,
// unless Random is set.
func (r *Reducer) PrefixLimit() (int64, bool) { return r.K, !r.Random }

// Reduce implements Algorithm 2.
func (r *Reducer) Reduce(key string, values []data.Record, out *mapreduce.Collector) error {
	out.Grow(int(min(int64(len(values)), r.K)))
	if int64(len(values)) <= r.K {
		for _, v := range values {
			out.Emit(key, v)
		}
		return nil
	}
	if !r.Random {
		for _, v := range values[:r.K] {
			out.Emit(key, v)
		}
		return nil
	}
	// Reservoir-sample k of the candidates (Vitter's Algorithm R),
	// emitting in reservoir order.
	reservoir := make([]data.Record, r.K)
	copy(reservoir, values[:r.K])
	rng := seededRand(r.Seed)
	for i := r.K; i < int64(len(values)); i++ {
		j := rng.Int63n(i + 1)
		if j < r.K {
			reservoir[j] = values[i]
		}
	}
	rngPool.Put(rng)
	for _, v := range reservoir {
		out.Emit(key, v)
	}
	return nil
}

// NewJobSpec assembles the complete sampling job: Algorithm 1 mapper,
// Algorithm 2 reducer, and a JobConf carrying the sampling parameters.
// projection may be nil (emit whole records).
func NewJobSpec(pred expr.Expr, k int64, projection *data.Schema, conf *mapreduce.JobConf) (mapreduce.JobSpec, error) {
	if pred == nil {
		return mapreduce.JobSpec{}, fmt.Errorf("sampling: predicate required")
	}
	if k <= 0 {
		return mapreduce.JobSpec{}, fmt.Errorf("sampling: sample size must be positive, got %d", k)
	}
	if conf == nil {
		conf = mapreduce.NewJobConf()
	}
	conf.SetInt(mapreduce.ConfSampleSize, k)
	conf.Set(mapreduce.ConfPredicate, pred.String())
	if projection != nil {
		conf.Set(mapreduce.ConfProjection, strings.Join(projection.Columns(), ","))
	}
	conf.SetInt(mapreduce.ConfNumReduces, 1)
	projCols := ""
	if projection != nil {
		projCols = strings.Join(projection.Columns(), ",")
	}
	return mapreduce.JobSpec{
		Conf:       conf,
		NewMapper:  NewMapperFactory(pred, k, projection),
		NewReducer: NewReducerFactory(k),
		// Algorithm 1's per-split output depends only on the split's
		// records and (predicate, k, projection): the mapper caps its
		// own emissions at k per task regardless of what other tasks
		// find, so it is safe to memoise under this key.
		MemoKey: fmt.Sprintf("sampling|k=%d|pred=%s|proj=%s", k, pred.String(), projCols),
		// Records the predicate rejects never reach the output, so the
		// runtime may skip statistics sub-blocks with no matches.
		FilterFingerprint: pred.String(),
	}, nil
}
