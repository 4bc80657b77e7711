package sampling

import (
	"math"
	"testing"

	"dynamicmr/internal/core"
	"dynamicmr/internal/mapreduce"
)

func TestCountingMapperCounts(t *testing.T) {
	m := &CountingMapper{Predicate: predGt5()}
	out := &mapreduce.Collector{}
	for i := int64(0); i < 20; i++ {
		if err := m.Map(rec(i, 0), out); err != nil {
			t.Fatal(err)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("counting mapper emitted %d records", out.Len())
	}
	// Values 6..19 match: 14 records.
	if got := out.UserCounters()[CounterMatches]; got != 14 {
		t.Fatalf("counted %d, want 14", got)
	}
}

func TestCountingMapperScanPath(t *testing.T) {
	b := blockOf(rec(1, 0), rec(7, 0), rec(9, 0))
	m := &CountingMapper{Predicate: predGt5()}
	out := &mapreduce.Collector{}
	if err := m.MapSplit(&mapreduce.TaskContext{Source: b.Source}, out); err != nil {
		t.Fatal(err)
	}
	if got := out.UserCounters()[CounterMatches]; got != 2 {
		t.Fatalf("counted %d, want 2", got)
	}
}

func estReport(records, matches int64, scheduled, completed, grab int) core.Report {
	return core.Report{
		Job: mapreduce.JobStatus{
			CompletedMaps:   completed,
			ScheduledMaps:   scheduled,
			MapInputRecords: records,
			UserCounters:    map[string]int64{CounterMatches: matches},
		},
		GrabLimit: grab,
	}
}

func TestEstimatorValidation(t *testing.T) {
	for _, bad := range []float64{0, -0.1, 1, 2} {
		p := NewEstimatorProvider(bad, 1)
		if err := p.Init(fakeSplits(4, 10), nil); err == nil {
			t.Errorf("MaxRelErr %v accepted", bad)
		}
	}
}

func TestEstimatorStopsWhenTight(t *testing.T) {
	p := NewEstimatorProvider(0.1, 1)
	if err := p.Init(fakeSplits(100, 1000), nil); err != nil {
		t.Fatal(err)
	}
	p.InitialSplits(4)
	// p̂ = 0.01 over 1M records: hw = 1.96*sqrt(.01*.99/1e6) ≈ 1.95e-4,
	// rel ≈ 0.0195 <= 0.1 and matches 10000 >= 30 → stop.
	resp, _ := p.Next(estReport(1_000_000, 10_000, 4, 4, 10))
	if resp != core.EndOfInput {
		t.Fatalf("resp = %v, want end of input", resp)
	}
	est := p.Estimate(10_000, 1_000_000)
	if math.Abs(est.Selectivity-0.01) > 1e-12 {
		t.Fatalf("estimate = %v", est.Selectivity)
	}
	if est.RelativeError > 0.1 {
		t.Fatalf("relative error = %v", est.RelativeError)
	}
}

func TestEstimatorKeepsGoingWhenLoose(t *testing.T) {
	p := NewEstimatorProvider(0.05, 1)
	if err := p.Init(fakeSplits(100, 1000), nil); err != nil {
		t.Fatal(err)
	}
	p.InitialSplits(4)
	// Only 40 matches in 4000 records: rel err ≈ 0.31 > 0.05 → grab.
	resp, splits := p.Next(estReport(4000, 40, 4, 4, 10))
	if resp != core.InputAvailable || len(splits) != 10 {
		t.Fatalf("resp = %v with %d splits", resp, len(splits))
	}
}

func TestEstimatorMinMatchesGuard(t *testing.T) {
	p := NewEstimatorProvider(0.5, 1)
	if err := p.Init(fakeSplits(100, 1000), nil); err != nil {
		t.Fatal(err)
	}
	p.InitialSplits(4)
	// 5 matches from 1M records: rel err small but matches < 30 → keep
	// going.
	resp, _ := p.Next(estReport(1_000_000, 5, 4, 4, 10))
	if resp != core.InputAvailable {
		t.Fatalf("resp = %v, want input available (min-matches guard)", resp)
	}
}

func TestEstimatorExhaustion(t *testing.T) {
	p := NewEstimatorProvider(0.01, 1)
	if err := p.Init(fakeSplits(4, 10), nil); err != nil {
		t.Fatal(err)
	}
	p.InitialSplits(4)
	resp, _ := p.Next(estReport(40, 0, 4, 4, 10))
	if resp != core.EndOfInput {
		t.Fatalf("resp = %v, want end of input when exhausted", resp)
	}
}

func TestEstimatorWaitsAtZeroGrab(t *testing.T) {
	p := NewEstimatorProvider(0.1, 1)
	if err := p.Init(fakeSplits(100, 1000), nil); err != nil {
		t.Fatal(err)
	}
	p.InitialSplits(4)
	resp, _ := p.Next(estReport(4000, 4, 4, 4, 0))
	if resp != core.NoInputAvailable {
		t.Fatalf("resp = %v, want wait-and-see", resp)
	}
}

// TestEstimatorConfidenceLevels: the interval is the 95% normal
// approximation, z = 1.96.
func TestEstimatorConfidenceLevels(t *testing.T) {
	est := NewEstimatorProvider(0.1, 1).Estimate(100, 10_000)
	if want := 1.96 * math.Sqrt(0.01*0.99/10_000); est.Selectivity != 0.01 || math.Abs(est.HalfWidth-want) > 1e-15 {
		t.Fatalf("estimate %+v, want p̂ 0.01 and half width %v", est, want)
	}
}

func TestEstimationJobSpec(t *testing.T) {
	spec, err := NewEstimationJobSpec(predGt5(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.NewMapper == nil {
		t.Fatal("no mapper")
	}
	if spec.Conf.Get(mapreduce.ConfPredicate, "") == "" {
		t.Fatal("predicate not stamped")
	}
	if _, err := NewEstimationJobSpec(nil, nil); err == nil {
		t.Fatal("nil predicate accepted")
	}
}
