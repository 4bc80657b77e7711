// Package core implements the paper's contribution: the incremental
// job-expansion mechanism (§III) and its policies (Table I). A dynamic
// job begins with a subset of its input partitions; an Input Provider,
// invoked by the client-side JobClient at each evaluation interval with
// job statistics and cluster load, decides to end input, add
// partitions, or wait. Growth is governed by a Policy: an evaluation
// interval, a work threshold, and a grab-limit formula over AS
// (available map slots) and TS (total map slots).
package core

import (
	"encoding/xml"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"dynamicmr/internal/policyexpr"
)

// Policy governs a dynamic job's growth (§III-B).
type Policy struct {
	// Name identifies the policy (the dynamic.job.policy conf value).
	Name string
	// Description is the Table I prose.
	Description string
	// EvaluationIntervalS is the period between Input Provider
	// invocations (the paper fixes 4 s for all non-Hadoop policies).
	EvaluationIntervalS float64
	// WorkThresholdPct is the minimum work — completed partitions since
	// the last evaluation, as a percentage of the job's total input
	// partitions — required before the provider is re-invoked.
	WorkThresholdPct float64
	// GrabLimitExpr bounds the partitions added per step, as a formula
	// over AS and TS ("inf" = unbounded).
	GrabLimitExpr string

	// compiled holds the parsed GrabLimitExpr. Registry policies are
	// shared across concurrently-running experiment cells, so the lazy
	// compile path must be race-free: the pointer is published
	// atomically and Expr.Eval is a read-only walk.
	compiled atomic.Pointer[policyexpr.Expr]
}

// Compile parses GrabLimitExpr; it must be called (directly or via
// Registry/Builtins) before GrabLimit. Recompiling an already-compiled
// policy is a no-op unless the expression text changed, so concurrent
// submitters sharing one registry never re-publish the pointer.
func (p *Policy) Compile() error {
	if p.Name == "" {
		return fmt.Errorf("core: policy needs a name")
	}
	// The negated range tests reject NaN too.
	if iv := p.EvaluationIntervalS; !(iv > 0 && iv <= math.MaxFloat64) {
		return fmt.Errorf("core: policy %q needs a positive, finite evaluation interval, got %v", p.Name, iv)
	}
	if w := p.WorkThresholdPct; !(w >= 0 && w <= 100) {
		return fmt.Errorf("core: policy %q work threshold %v outside [0,100]", p.Name, w)
	}
	if e := p.compiled.Load(); e != nil && e.String() == p.GrabLimitExpr {
		return nil
	}
	e, err := policyexpr.Compile(p.GrabLimitExpr)
	if err != nil {
		return fmt.Errorf("core: policy %q grab limit: %w", p.Name, err)
	}
	p.compiled.Store(e)
	return nil
}

// GrabLimit evaluates the policy's grab limit for the given slot
// availability. The result is a whole number of partitions (ceil of the
// formula), never negative; math.MaxInt for unbounded, which is also
// what any value too large for an int means. A formula that evaluates
// to NaN (inf-inf, 0*inf) is an error.
func (p *Policy) GrabLimit(availableSlots, totalSlots int) (int, error) {
	return p.GrabLimitWith(availableSlots, totalSlots, 0)
}

// GrabLimitWith additionally binds QT — the cluster-wide queued
// (scheduled but slot-less) map task count — for formulas that react
// to backlog rather than instantaneous slot availability (the adaptive
// envelope uses it; Table I's formulas ignore it).
func (p *Policy) GrabLimitWith(availableSlots, totalSlots, queuedTasks int) (int, error) {
	e := p.compiled.Load()
	if e == nil || e.String() != p.GrabLimitExpr {
		if err := p.Compile(); err != nil {
			return 0, err
		}
		e = p.compiled.Load()
	}
	v, err := e.Eval(policyexpr.Env{
		"AS": float64(availableSlots),
		"TS": float64(totalSlots),
		"QT": float64(queuedTasks),
	})
	if err != nil {
		return 0, err
	}
	switch {
	case math.IsNaN(v):
		return 0, fmt.Errorf("core: policy %q grab limit %q is NaN at AS=%d TS=%d QT=%d",
			p.Name, p.GrabLimitExpr, availableSlots, totalSlots, queuedTasks)
	case v >= math.MaxInt:
		return math.MaxInt, nil
	case v < 0:
		return 0, nil
	}
	return int(math.Ceil(v - 1e-9)), nil
}

// Builtin policy names (Table I).
const (
	PolicyHadoop = "Hadoop"
	PolicyHA     = "HA"
	PolicyMA     = "MA"
	PolicyLA     = "LA"
	PolicyC      = "C"
)

// Builtins returns the five Table I policies, compiled. The paper's MA
// and LA rows print "(AS < 0) ?" — a typo for AS > 0 given the prose
// ("either one-half of the available map slots (AS) or one-fifth of the
// total map slots (TS)"); we implement the prose reading.
func Builtins() []*Policy {
	ps := []*Policy{
		{
			Name:                PolicyHadoop,
			Description:         "Hadoop's default behaviour: all input in a single step",
			EvaluationIntervalS: 4,
			WorkThresholdPct:    0,
			GrabLimitExpr:       "inf",
		},
		{
			Name:                PolicyHA,
			Description:         "Highly Aggressive policy",
			EvaluationIntervalS: 4,
			WorkThresholdPct:    0,
			GrabLimitExpr:       "max(0.5*TS, AS)",
		},
		{
			Name:                PolicyMA,
			Description:         "Mid Aggressive policy",
			EvaluationIntervalS: 4,
			WorkThresholdPct:    5,
			GrabLimitExpr:       "AS > 0 ? 0.5*AS : 0.2*TS",
		},
		{
			Name:                PolicyLA,
			Description:         "Less Aggressive policy",
			EvaluationIntervalS: 4,
			WorkThresholdPct:    10,
			GrabLimitExpr:       "AS > 0 ? 0.2*AS : 0.1*TS",
		},
		{
			Name:                PolicyC,
			Description:         "Conservative policy",
			EvaluationIntervalS: 4,
			WorkThresholdPct:    15,
			GrabLimitExpr:       "0.1*AS",
		},
	}
	for _, p := range ps {
		if err := p.Compile(); err != nil {
			panic(err)
		}
	}
	return ps
}

// Registry holds the available policies (the contents of policy.xml).
type Registry struct {
	byName map[string]*Policy
	order  []string
}

// NewRegistry builds a registry from compiled policies.
func NewRegistry(ps ...*Policy) (*Registry, error) {
	r := &Registry{byName: make(map[string]*Policy)}
	for _, p := range ps {
		if err := r.Add(p); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// DefaultRegistry returns a registry holding the Table I builtins.
func DefaultRegistry() *Registry {
	r, err := NewRegistry(Builtins()...)
	if err != nil {
		panic(err)
	}
	return r
}

// Add compiles and registers a policy; duplicate names are an error.
func (r *Registry) Add(p *Policy) error {
	if err := p.Compile(); err != nil {
		return err
	}
	key := strings.ToLower(p.Name)
	if _, dup := r.byName[key]; dup {
		return fmt.Errorf("core: duplicate policy %q", p.Name)
	}
	r.byName[key] = p
	r.order = append(r.order, p.Name)
	return nil
}

// Get looks a policy up by name (case-insensitive).
func (r *Registry) Get(name string) (*Policy, error) {
	p, ok := r.byName[strings.ToLower(name)]
	if !ok {
		avail := append([]string(nil), r.order...)
		sort.Strings(avail)
		return nil, fmt.Errorf("core: unknown policy %q (available: %s)", name, strings.Join(avail, ", "))
	}
	return p, nil
}

// Names returns the registered policy names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.order...) }

// xmlPolicies is the policy.xml document layout (§IV: "the available
// policies are defined in a policy.xml file").
type xmlPolicies struct {
	XMLName  xml.Name    `xml:"policies"`
	Policies []xmlPolicy `xml:"policy"`
}

type xmlPolicy struct {
	Name               string  `xml:"name,attr"`
	Description        string  `xml:"description"`
	EvaluationInterval float64 `xml:"evaluationIntervalSeconds"`
	WorkThresholdPct   float64 `xml:"workThresholdPercent"`
	GrabLimit          string  `xml:"grabLimit"`
}

// PolicyXML renders the registry as a policy.xml document.
func (r *Registry) PolicyXML() ([]byte, error) {
	doc := xmlPolicies{}
	for _, name := range r.order {
		p := r.byName[strings.ToLower(name)]
		doc.Policies = append(doc.Policies, xmlPolicy{
			Name:               p.Name,
			Description:        p.Description,
			EvaluationInterval: p.EvaluationIntervalS,
			WorkThresholdPct:   p.WorkThresholdPct,
			GrabLimit:          p.GrabLimitExpr,
		})
	}
	out, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}

// ParsePolicyXML loads a policy.xml document into a new registry.
func ParsePolicyXML(doc []byte) (*Registry, error) {
	var parsed xmlPolicies
	if err := xml.Unmarshal(doc, &parsed); err != nil {
		return nil, fmt.Errorf("core: parsing policy.xml: %w", err)
	}
	r := &Registry{byName: make(map[string]*Policy)}
	for _, xp := range parsed.Policies {
		p := &Policy{
			Name:                xp.Name,
			Description:         xp.Description,
			EvaluationIntervalS: xp.EvaluationInterval,
			WorkThresholdPct:    xp.WorkThresholdPct,
			GrabLimitExpr:       xp.GrabLimit,
		}
		if err := r.Add(p); err != nil {
			return nil, err
		}
	}
	return r, nil
}
