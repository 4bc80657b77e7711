package core

import (
	"fmt"

	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/trace"
)

// AdaptiveSelector implements the paper's §VII future-work proposal:
// "a more flexible model wherein a job could decide and change the
// policy at runtime, based on the discovered characteristics of the
// input data together with the existing load on the cluster."
//
// The selector re-picks a policy from an ordered spectrum (most
// conservative first) at every evaluation, from two signals:
//
//   - cluster load: the fraction of occupied map slots. A loaded
//     cluster pushes the job toward the conservative end (§III-B: "on
//     a more heavily loaded cluster, a job shall be cautious"), an
//     idle one toward the aggressive end ("resources would otherwise
//     be left idle").
//   - data yield: the observed match rate relative to what the job
//     needs. When observed selectivity is so low that most partitions
//     contribute nothing (the high-skew regime of §V-C), the selector
//     shifts one step more aggressive to compensate.
type AdaptiveSelector struct {
	// Spectrum orders candidate policies most-conservative first;
	// defaults to [C, LA, MA, HA].
	Spectrum []*Policy
	// LoadHigh and LoadLow bound the occupied-slot fraction that maps
	// onto the spectrum (defaults 0.75 / 0.25).
	LoadHigh, LoadLow float64

	switches  int
	lastIndex int
}

// NewAdaptiveSelector returns a selector over the default spectrum.
func NewAdaptiveSelector() *AdaptiveSelector {
	reg := DefaultRegistry()
	var spectrum []*Policy
	for _, name := range []string{PolicyC, PolicyLA, PolicyMA, PolicyHA} {
		p, err := reg.Get(name)
		if err != nil {
			panic(err)
		}
		spectrum = append(spectrum, p)
	}
	return &AdaptiveSelector{Spectrum: spectrum, LoadHigh: 0.75, LoadLow: 0.25, lastIndex: -1}
}

// Pick selects the policy for the current conditions. estSelectivity
// is the job's observed match rate (<0 when unknown); neededRate is
// the match rate that would let the job finish with roughly the input
// it already has (<=0 when unknown).
func (a *AdaptiveSelector) Pick(cs mapreduce.ClusterStatus, estSelectivity, neededRate float64) *Policy {
	if len(a.Spectrum) == 0 {
		panic("core: adaptive selector with empty spectrum")
	}
	// Load counts queued (scheduled but slot-less) tasks as demand, not
	// just occupied slots: at the instant one job finishes, slots free
	// up briefly while other jobs' backlogs still saturate the cluster,
	// and instantaneous occupancy alone would misread that as idle.
	load := 0.0
	if cs.TotalMapSlots > 0 {
		load = float64(cs.OccupiedMapSlots+cs.QueuedMapTasks) / float64(cs.TotalMapSlots)
		if load > 1 {
			load = 1
		}
	}
	// Map load onto the spectrum: idle -> most aggressive (last),
	// saturated -> most conservative (first).
	span := a.LoadHigh - a.LoadLow
	var frac float64 // 0 = aggressive end, 1 = conservative end
	switch {
	case span <= 0 || load >= a.LoadHigh:
		frac = 1
	case load <= a.LoadLow:
		frac = 0
	default:
		frac = (load - a.LoadLow) / span
	}
	idx := int(float64(len(a.Spectrum)-1) * (1 - frac))

	// Starved for matches: step one notch more aggressive, since many
	// partitions are yielding nothing (high-skew compensation, §V-C).
	if estSelectivity >= 0 && neededRate > 0 && estSelectivity < neededRate/2 {
		idx++
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= len(a.Spectrum) {
		idx = len(a.Spectrum) - 1
	}
	if idx != a.lastIndex {
		if a.lastIndex >= 0 {
			a.switches++
		}
		a.lastIndex = idx
	}
	return a.Spectrum[idx]
}

// AdaptiveProvider wraps an InputProvider so each evaluation runs under
// the policy an AdaptiveSelector picks for current conditions: it
// recomputes the grab limit with the selected policy and forwards an
// adjusted report to the inner provider.
//
// The evaluation *cadence* (interval, work threshold) remains that of
// the policy the JobClient was submitted with; what adapts per step is
// the grab limit — the parameter the paper identifies as governing a
// job's demand on the cluster.
type AdaptiveProvider struct {
	// Inner is the decision logic being adapted (e.g. the sampling
	// provider).
	Inner InputProvider
	// Selector picks the step policy; nil means NewAdaptiveSelector().
	Selector *AdaptiveSelector
	// K is the sample target used to derive the needed match rate;
	// read from the JobConf when zero.
	K int64
	// Tracer, when enabled, receives a policy-switch instant whenever
	// the selection changes. SubmitDynamic wires it from the JobTracker.
	Tracer *trace.Tracer

	total    int64 // records across all input
	perSplit float64
	lastPol  *Policy
}

// NewAdaptiveProvider wraps inner with runtime policy selection.
func NewAdaptiveProvider(inner InputProvider) *AdaptiveProvider {
	return &AdaptiveProvider{Inner: inner, Selector: NewAdaptiveSelector()}
}

// Init implements InputProvider.
func (p *AdaptiveProvider) Init(all []mapreduce.Split, conf *mapreduce.JobConf) error {
	if p.Selector == nil {
		p.Selector = NewAdaptiveSelector()
	}
	if p.K == 0 && conf != nil {
		p.K = conf.GetInt(mapreduce.ConfSampleSize, 0)
	}
	p.total = 0
	for _, s := range all {
		p.total += s.NumRecords()
	}
	if len(all) > 0 {
		p.perSplit = float64(p.total) / float64(len(all))
	}
	return p.Inner.Init(all, conf)
}

// InitialSplits implements InputProvider.
func (p *AdaptiveProvider) InitialSplits(grab int) []mapreduce.Split {
	return p.Inner.InitialSplits(grab)
}

// Next implements InputProvider: re-evaluate the policy, recompute the
// grab limit under it, and delegate.
func (p *AdaptiveProvider) Next(rep Report) (Response, []mapreduce.Split) {
	est := -1.0
	if rep.Job.MapInputRecords > 0 {
		est = float64(rep.Job.MapOutputRecords) / float64(rep.Job.MapInputRecords)
	}
	needed := 0.0
	if p.K > 0 && rep.Job.ScheduledMaps > 0 && p.perSplit > 0 {
		needed = float64(p.K) / (float64(rep.Job.ScheduledMaps) * p.perSplit)
	}
	pol := p.Selector.Pick(rep.Cluster, est, needed)
	if p.lastPol != nil && pol != p.lastPol {
		p.Tracer.Instant(trace.EventPolicySwitch, trace.CatPolicy, rep.Job.Now, rep.Job.JobID, -1, -1)
	}
	p.lastPol = pol
	grab, err := pol.GrabLimitWith(rep.Cluster.AvailableMapSlots(),
		rep.Cluster.TotalMapSlots, rep.Cluster.QueuedMapTasks)
	if err == nil {
		rep.GrabLimit = grab
	}
	resp, splits := p.Inner.Next(rep)
	if resp == InputAvailable && len(splits) > rep.GrabLimit {
		splits = splits[:rep.GrabLimit]
	}
	return resp, splits
}

// policySelector is a provider that picks its policy at runtime;
// JobClient labels each audited decision with the current pick.
type policySelector interface{ CurrentPolicy() *Policy }

var _ policySelector = (*AdaptiveProvider)(nil)

// CurrentPolicy returns the most recently selected policy.
func (p *AdaptiveProvider) CurrentPolicy() *Policy { return p.lastPol }

// AdaptiveEnvelopePolicy returns the cadence policy a JobClient should
// be submitted with when using an AdaptiveProvider: a 4 s evaluation
// interval, no work threshold, and a grab-limit expression that applies
// the selector's load→policy mapping to the *initial* grab (before the
// provider has been consulted): HA's limit on an idle cluster, an
// LA/MA blend at moderate load, C's at saturation. Subsequent steps are
// governed by the provider's per-evaluation selection.
func AdaptiveEnvelopePolicy() *Policy {
	p := &Policy{
		Name:                "Adaptive",
		Description:         "runtime policy selection (paper §VII future work)",
		EvaluationIntervalS: 4,
		WorkThresholdPct:    0,
		// Effective availability discounts the cluster-wide backlog so
		// momentary slot gaps in a loaded cluster don't read as idle.
		GrabLimitExpr: "(AS - QT) >= 0.75*TS ? max(0.5*TS, AS) : (AS - QT) >= 0.25*TS ? 0.35*AS : 0.1*AS",
	}
	if err := p.Compile(); err != nil {
		panic(err)
	}
	return p
}

var _ InputProvider = (*AdaptiveProvider)(nil)

func init() {
	// Guard against accidental spectrum misordering in future edits:
	// the default spectrum must run conservative -> aggressive.
	s := NewAdaptiveSelector()
	if len(s.Spectrum) != 4 || s.Spectrum[0].Name != PolicyC || s.Spectrum[3].Name != PolicyHA {
		panic(fmt.Sprintf("core: adaptive spectrum misordered: %v", s.Spectrum))
	}
}
