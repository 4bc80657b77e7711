package core

import (
	"slices"
	"testing"

	"dynamicmr/internal/mapreduce"
)

func cs(occupied, total int) mapreduce.ClusterStatus {
	return mapreduce.ClusterStatus{TotalMapSlots: total, OccupiedMapSlots: occupied}
}

func TestSelectorIdleClusterPicksAggressive(t *testing.T) {
	s := NewAdaptiveSelector()
	p := s.Pick(cs(0, 40), -1, 0)
	if p.Name != PolicyHA {
		t.Fatalf("idle cluster picked %s, want HA", p.Name)
	}
}

func TestSelectorSaturatedClusterPicksConservative(t *testing.T) {
	s := NewAdaptiveSelector()
	p := s.Pick(cs(40, 40), -1, 0)
	if p.Name != PolicyC {
		t.Fatalf("saturated cluster picked %s, want C", p.Name)
	}
}

func TestSelectorMidLoadPicksMiddle(t *testing.T) {
	s := NewAdaptiveSelector()
	p := s.Pick(cs(20, 40), -1, 0)
	if p.Name != PolicyLA && p.Name != PolicyMA {
		t.Fatalf("50%% load picked %s, want LA or MA", p.Name)
	}
}

func TestSelectorLowYieldStepsAggressive(t *testing.T) {
	s := NewAdaptiveSelector()
	base := s.Pick(cs(40, 40), -1, 0) // C
	s2 := NewAdaptiveSelector()
	starved := s2.Pick(cs(40, 40), 0.0001, 0.01) // yield far below need
	if starved.Name == base.Name {
		t.Fatalf("low yield did not shift policy (still %s)", starved.Name)
	}
}

// TestSelectorSwitchesWithLoad: one selector keeps its pick while
// conditions hold and switches when the load changes.
func TestSelectorSwitchesWithLoad(t *testing.T) {
	s := NewAdaptiveSelector()
	var picks []string
	for _, c := range []mapreduce.ClusterStatus{cs(0, 40), cs(0, 40), cs(40, 40), cs(40, 40), cs(0, 40)} {
		picks = append(picks, s.Pick(c, -1, 0).Name)
	}
	if want := []string{PolicyHA, PolicyHA, PolicyC, PolicyC, PolicyHA}; !slices.Equal(picks, want) {
		t.Fatalf("picks %v, want %v", picks, want)
	}
}

func TestAdaptiveProviderDelegates(t *testing.T) {
	r := newRig(t)
	splits := r.file(t, "in", 30, 50)
	inner := &scriptedProvider{initial: 4, schedule: []int{4, 4, 4}}
	prov := NewAdaptiveProvider(inner)
	client, err := SubmitDynamic(r.jt, mapreduce.JobSpec{NewMapper: passMapper}, splits,
		prov, AdaptiveEnvelopePolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !mapreduce.RunUntilDone(r.eng, client.Job(), 1e6) {
		t.Fatalf("adaptive job stuck: %v", client.ProviderError())
	}
	if client.Job().State() != mapreduce.StateSucceeded {
		t.Fatalf("state = %v", client.Job().State())
	}
	// JobClient labels each decision with the policy the selector
	// picked, not the envelope it was submitted under.
	if prov.lastPol == nil || client.policyName() != prov.lastPol.Name {
		t.Fatalf("decisions labelled %q, want the selected policy", client.policyName())
	}
	// The job grew incrementally: 4 initial + up to 12 more.
	if got := client.Job().ScheduledMaps(); got < 8 || got > 16 {
		t.Fatalf("scheduled = %d", got)
	}
}

func TestAdaptiveProviderGrabLimitEnforced(t *testing.T) {
	// Inner provider tries to hand out everything at once; the
	// adaptive wrapper must cap it to the selected policy's grab limit.
	r := newRig(t)
	splits := r.file(t, "in", 40, 400)
	inner := &scriptedProvider{initial: 1, schedule: []int{39, 39, 39, 39, 39, 39, 39, 39}}
	prov := NewAdaptiveProvider(inner)
	client, err := SubmitDynamic(r.jt, mapreduce.JobSpec{NewMapper: passMapper}, splits,
		prov, AdaptiveEnvelopePolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !mapreduce.RunUntilDone(r.eng, client.Job(), 1e6) {
		t.Fatal("job stuck")
	}
	// HA on an idle 40-slot cluster caps at 40... the most aggressive
	// non-Hadoop step; verify at least one evaluation was capped below
	// the inner provider's 39-split offer plus initial (i.e. the job
	// was not fully scheduled after the first Next).
	decisions := client.Decisions()
	if len(decisions) == 0 {
		t.Fatal("no decisions")
	}
	first := decisions[0]
	if first.Added > 39 {
		t.Fatalf("first increment added %d", first.Added)
	}
}

func TestAdaptiveEnvelopePolicy(t *testing.T) {
	p := AdaptiveEnvelopePolicy()
	if p.WorkThresholdPct != 0 {
		t.Fatal("envelope must not throttle evaluations")
	}
	// Idle cluster: HA's grab (max(0.5*40, 40) = 40).
	if g, _ := p.GrabLimit(40, 40); g != 40 {
		t.Fatalf("idle grab = %d, want 40", g)
	}
	// Mid load: the LA/MA blend (0.35*20 = 7).
	if g, _ := p.GrabLimit(20, 40); g != 7 {
		t.Fatalf("mid-load grab = %d, want 7", g)
	}
	// Saturated: C's grab (0.1*4 = 0.4 -> ceil 1).
	if g, _ := p.GrabLimit(4, 40); g != 1 {
		t.Fatalf("loaded grab = %d, want 1", g)
	}
}

func TestAdaptiveProviderReadsKFromConf(t *testing.T) {
	conf := mapreduce.NewJobConf()
	conf.SetInt(mapreduce.ConfSampleSize, 123)
	prov := NewAdaptiveProvider(&scriptedProvider{initial: 1})
	if err := prov.Init(nil, conf); err != nil {
		t.Fatal(err)
	}
	if prov.K != 123 {
		t.Fatalf("K = %d", prov.K)
	}
}
