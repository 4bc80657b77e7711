package dynbench

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run: rounds of one (workload, seed), repeated for a
// fixed host time, in one process.
type Result struct {
	Workload string
	Seed     int64
	Rounds   []*Round
	// PeakRSSMB is the process's peak resident set at the end of the run.
	PeakRSSMB float64
}

// Run repeats rounds until the next would end after `seconds` of host
// time, with at least three rounds so that set-up time has a median. In
// trace mode rounds alternate untraced and traced, at least two of each,
// so the run measures the decorators' overhead as well as the layers.
func Run(opt Options, seconds float64, trace bool) (*Result, error) {
	rn, err := NewRunner(opt)
	if err != nil {
		return nil, err
	}
	// A trace-mode run adds rounds in (untraced, traced) pairs.
	minRounds, step := 3, 1.0
	if trace {
		minRounds, step = 4, 2
	}
	res := &Result{Workload: opt.Workload, Seed: opt.Seed}
	start := time.Now()
	for {
		traced := trace && len(res.Rounds)%2 == 1
		rd, err := rn.Round(traced)
		if err != nil {
			return nil, err
		}
		res.Rounds = append(res.Rounds, rd)
		if len(res.Rounds) < minRounds || (trace && !traced) {
			continue
		}
		walls := make([]float64, len(res.Rounds))
		for i, r := range res.Rounds {
			walls[i] = r.WallS
		}
		if time.Since(start).Seconds()+step*median(walls) > seconds {
			break
		}
	}
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// peakRSSMB reads the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// Attempted is the number of jobs the run completed, across rounds.
func (r *Result) Attempted() int {
	n := 0
	for _, rd := range r.Rounds {
		n += rd.Jobs
	}
	return n
}

// Failed is the number of completed jobs that FAILED or failed the oracle.
func (r *Result) Failed() int {
	n := 0
	for _, rd := range r.Rounds {
		n += rd.Failed
	}
	return n
}

// Check reports why the run is not correct: a job failed, or two rounds
// of the same seed disagree on an exact count (scan records are
// compared among traced rounds, the only ones that count them).
func (r *Result) Check() error {
	if n := r.Failed(); n > 0 {
		var first string
		for _, rd := range r.Rounds {
			if len(rd.Errors) > 0 {
				first = rd.Errors[0]
				break
			}
		}
		return fmt.Errorf("%d of %d jobs failed; first: %s", n, r.Attempted(), first)
	}
	var ref, refTraced *Counts
	for _, rd := range r.Rounds {
		c := rd.Counts
		c.ScanRecords = 0
		if ref == nil {
			ref = &c
		} else if c != *ref {
			return fmt.Errorf("rounds of seed %d disagree on exact counts: %+v vs %+v", r.Seed, *ref, c)
		}
		if rd.Traced {
			if refTraced == nil {
				refTraced = &rd.Counts
			} else if rd.Counts.ScanRecords != refTraced.ScanRecords {
				return fmt.Errorf("traced rounds of seed %d disagree on scan records: %d vs %d",
					r.Seed, refTraced.ScanRecords, rd.Counts.ScanRecords)
			}
		}
	}
	return nil
}

// EndToEnd are the metrics a user of the system sees, from the untraced
// rounds: medians over rounds, and job latency percentiles over every
// job of the run. Their times are scaled to the reference speed (see
// Round.speed); the unscaled host times are reported beside them.
var EndToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"job_host_ms.p50", "ms"},
	{"job_host_ms.p95", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"peak_rss_mb", "MB"},
}

// refSliceS is one calibration slice's host time on the reference
// machine, the 2-core machine the baseline was recorded on.
const refSliceS = 0.025

// speed is the factor that scales the round's host times to the
// reference speed: the reference slice time over the round's mean slice
// time. The machine's speed drifts by tens of percent over minutes when
// it is shared; the slices run during the loop drift with it, so scaled
// times keep only what the program itself changed.
func (rd *Round) speed() float64 { return refSliceS * float64(rd.CalSlices) / rd.CalS }

// EndToEnd computes the end-to-end metrics.
func (r *Result) EndToEnd() map[string]Metric {
	v := r.endToEnd(true)
	out := make(map[string]Metric, len(EndToEnd))
	for _, m := range EndToEnd {
		out[m.Name] = Metric{Value: v[m.Name], Unit: m.Unit}
	}
	return out
}

// Unscaled returns the end-to-end times as the host clock read them.
func (r *Result) Unscaled() map[string]Metric {
	v := r.endToEnd(false)
	out := map[string]Metric{}
	for _, m := range EndToEnd[:4] {
		out[m.Name+".unscaled"] = Metric{Value: v[m.Name], Unit: m.Unit}
	}
	return out
}

func (r *Result) endToEnd(scaled bool) map[string]float64 {
	var setup, rate, alloc, lat []float64
	for _, rd := range r.Rounds {
		if rd.Traced {
			continue
		}
		f := 1.0
		if scaled {
			f = rd.speed()
		}
		setup = append(setup, rd.SetupS*f)
		rate = append(rate, float64(rd.Jobs)/(rd.LoopS*f))
		alloc = append(alloc, float64(rd.AllocBytes)/1e6/float64(rd.Jobs))
		for _, ms := range rd.JobHostMS {
			lat = append(lat, ms*f)
		}
	}
	sort.Float64s(lat)
	return map[string]float64{
		"setup_s":          median(setup),
		"jobs_per_s":       median(rate),
		"job_host_ms.p50":  median(lat),
		"job_host_ms.p95":  percentile(lat, 0.95),
		"alloc_mb_per_job": median(alloc),
		"peak_rss_mb":      r.PeakRSSMB,
	}
}

// Observability returns the observed workload's end-of-run flush, the
// layer the other workloads never run: medians over untraced rounds.
// It is reported beside the per-layer metrics, not as one, because it
// is zero on every other workload.
func (r *Result) Observability() map[string]Metric {
	if r.Workload != Observed {
		return nil
	}
	pick := func(f func(*Round) float64) float64 {
		var xs []float64
		for _, rd := range r.Rounds {
			if !rd.Traced {
				xs = append(xs, f(rd))
			}
		}
		return median(xs)
	}
	return map[string]Metric{
		"flush_s":            {pick(func(rd *Round) float64 { return rd.FlushS }), "s"},
		"diag.analyze_s":     {pick(func(rd *Round) float64 { return rd.DiagS }), "s"},
		"tsdb.dump_s":        {pick(func(rd *Round) float64 { return rd.TSDBS }), "s"},
		"qstats.dump_s":      {pick(func(rd *Round) float64 { return rd.QStatsS }), "s"},
		"runarchive.write_s": {pick(func(rd *Round) float64 { return rd.ArchiveS }), "s"},
		"runarchive.mb":      {pick(func(rd *Round) float64 { return rd.ArchiveMB }), "MB"},
		"trace.spans":        {pick(func(rd *Round) float64 { return float64(rd.Counts.TraceSpans) }), "count"},
	}
}

// selfS is the simulator thread's time the decorators cannot attribute
// to a seam: event dispatch, provider evaluation, shuffle sort and
// reduce all run inside simulator callbacks.
func (rd *Round) selfS() float64 { return rd.LoopS - rd.SchedS - rd.BlockedS - rd.HiveS }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// PerLayer are the metrics of single layers, each named after the
// module it measures, from the traced rounds. The exact counts among
// them repeat to the last digit for a seed; the rest are wall-clock.
var PerLayer = []struct {
	Name, Unit string
	value      func(*Round) float64
}{
	{"sim.events", "count", func(rd *Round) float64 { return float64(rd.Counts.Events) }},
	{"sim.virtual_s", "virtual_s", func(rd *Round) float64 { return rd.Counts.VirtualS }},
	{"sim.loop_s", "s", func(rd *Round) float64 { return rd.LoopS }},
	{"sim.blocked_s", "s", func(rd *Round) float64 { return rd.BlockedS }},
	{"mapreduce.self_s", "s", (*Round).selfS},
	{"mapreduce.ns_per_event", "ns", func(rd *Round) float64 { return ratio(rd.selfS()*1e9, float64(rd.Counts.Events)) }},
	{"mapreduce.maps", "count", func(rd *Round) float64 { return float64(rd.Counts.Maps) }},
	{"mapreduce.shuffle_records", "count", func(rd *Round) float64 { return float64(rd.Counts.ShuffleRecords) }},
	{"mapreduce.reduce_out_records", "count", func(rd *Round) float64 { return float64(rd.Counts.ReduceOutRecords) }},
	{"mapreduce.memo_hits", "count", func(rd *Round) float64 { return float64(rd.Counts.MemoHits) }},
	{"mapreduce.memo_hit_ratio", "ratio", func(rd *Round) float64 {
		return ratio(float64(rd.Counts.MemoHits), float64(rd.Counts.MemoHits+rd.Counts.MemoMisses))
	}},
	{"mapreduce.executor_submitted", "count", func(rd *Round) float64 { return float64(rd.Counts.ExecSubmitted) }},
	{"mapreduce.executor_deduped", "count", func(rd *Round) float64 { return float64(rd.Counts.ExecDeduped) }},
	{"sched.calls", "count", func(rd *Round) float64 { return float64(rd.SchedCalls) }},
	{"sched.s", "s", func(rd *Round) float64 { return rd.SchedS }},
	{"sched.tasks", "count", func(rd *Round) float64 { return float64(rd.SchedTasks) }},
	{"sched.empty_ratio", "ratio", func(rd *Round) float64 { return ratio(float64(rd.SchedEmpty), float64(rd.SchedCalls)) }},
	{"scan.calls", "count", func(rd *Round) float64 { return float64(rd.ScanCalls) }},
	{"scan.busy_s", "s", func(rd *Round) float64 { return rd.ScanBusyS }},
	{"scan.records", "count", func(rd *Round) float64 { return float64(rd.Counts.ScanRecords) }},
	{"scan.records_per_output", "ratio", func(rd *Round) float64 {
		return ratio(float64(rd.Counts.ScanRecords), float64(rd.Counts.MapOutputRecords))
	}},
	{"scan.blocks_read", "count", func(rd *Round) float64 { return float64(rd.Counts.BlocksRead) }},
	{"scan.blocks_skipped", "count", func(rd *Round) float64 { return float64(rd.Counts.BlocksSkipped) }},
	{"provider.evals", "count", func(rd *Round) float64 { return float64(rd.Counts.Evals) }},
	{"provider.grows", "count", func(rd *Round) float64 { return float64(rd.Counts.Grows) }},
	{"provider.waits", "count", func(rd *Round) float64 { return float64(rd.Counts.Waits) }},
	{"provider.splits_per_job", "splits/job", func(rd *Round) float64 { return ratio(float64(rd.Counts.Splits), float64(rd.Jobs)) }},
	{"provider.overshoot", "ratio", func(rd *Round) float64 {
		return ratio(float64(rd.Counts.SampleOutput), float64(rd.Counts.SampleK))
	}},
	{"hive.queries", "count", func(rd *Round) float64 { return float64(rd.HiveQueries) }},
	{"hive.submit_s", "s", func(rd *Round) float64 { return rd.HiveS }},
	{"hive.us_per_query", "us", func(rd *Round) float64 { return ratio(rd.HiveS*1e6, float64(rd.HiveQueries)) }},
	{"runtime.gc_cpu_s", "s", func(rd *Round) float64 { return rd.GCCPUS }},
	{"runtime.gc_cycles", "count", func(rd *Round) float64 { return float64(rd.GCCycles) }},
	{"runtime.alloc_mb", "MB", func(rd *Round) float64 { return float64(rd.AllocBytes) / 1e6 }},
	{"bench.oracle_s", "s", func(rd *Round) float64 { return rd.OracleS }},
	{"bench.cal_slice_ms", "ms", func(rd *Round) float64 { return rd.CalS * 1e3 / float64(rd.CalSlices) }},
}

// TraceOverhead is the per-layer metric comparing the two kinds of
// rounds of a trace-mode run.
const TraceOverhead = "bench.trace_overhead_pct"

// PerLayer computes the per-layer metrics: medians over traced rounds,
// plus the decorators' overhead on loop time against untraced rounds.
func (r *Result) PerLayer() map[string]Metric {
	var traced, plain []float64
	for _, rd := range r.Rounds {
		if rd.Traced {
			traced = append(traced, rd.LoopS)
		} else {
			plain = append(plain, rd.LoopS)
		}
	}
	out := make(map[string]Metric, len(PerLayer)+1)
	for _, m := range PerLayer {
		var xs []float64
		for _, rd := range r.Rounds {
			if rd.Traced {
				xs = append(xs, m.value(rd))
			}
		}
		out[m.Name] = Metric{Value: median(xs), Unit: m.Unit}
	}
	out[TraceOverhead] = Metric{Value: (ratio(median(traced), median(plain)) - 1) * 100, Unit: "%"}
	return out
}

// median returns the middle of xs (the mean of the two middles for an
// even count); NaN for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of sorted xs.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// Quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads read the same here and in tools that
// use it. A single value is its own quartiles.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
