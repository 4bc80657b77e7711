package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Rule kinds.
const (
	KindThreshold    = "threshold"
	KindRateOfChange = "rate_of_change"
	KindSLOBurn      = "slo_burn"
)

// Alert states (AlertEvent.State).
const (
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Rule is one declarative alert rule, evaluated on the virtual clock at
// every collection tick:
//
//   - threshold: the named series' latest value, compared against Value.
//   - rate_of_change: the series' per-second rate over the trailing
//     WindowS (latest minus the value WindowS ago, over the elapsed
//     gap), compared against Value.
//   - slo_burn: the percentage of queries finished inside the trailing
//     WindowS whose virtual latency exceeded ObjectiveS (optionally
//     restricted to Policy), compared against MaxBurnPct. The burn
//     percentage is also recorded as the series "slo.<name>.burn_pct".
//
// A rule whose condition holds for ForS consecutive virtual seconds
// fires; when the condition clears, it resolves. Both transitions
// append an AlertEvent to the log.
type Rule struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Series names the input series (threshold, rate_of_change).
	Series string `json:"series,omitempty"`
	// Op is the comparison: ">", ">=", "<" or "<=" (default ">").
	Op string `json:"op,omitempty"`
	// Value is the threshold (threshold: series units;
	// rate_of_change: units per virtual second).
	Value float64 `json:"value,omitempty"`
	// Policy restricts an slo_burn rule to one policy ("" = all).
	Policy string `json:"policy,omitempty"`
	// ObjectiveS is the slo_burn latency objective in virtual seconds.
	ObjectiveS float64 `json:"objective_s,omitempty"`
	// MaxBurnPct is the tolerated slo_burn percentage (0 = any breach).
	MaxBurnPct float64 `json:"max_burn_pct,omitempty"`
	// WindowS is the trailing evaluation window in virtual seconds
	// (rate_of_change, slo_burn; default DefaultWindowS).
	WindowS float64 `json:"window_s,omitempty"`
	// ForS holds the condition this long before firing (default 0:
	// fire on the first breaching tick).
	ForS float64 `json:"for_s,omitempty"`
	// Severity is free-form ("page", "warn", ...), carried through to
	// events and surfaces.
	Severity string `json:"severity,omitempty"`
}

// DefaultWindowS is the trailing window for rules that need one but do
// not set it.
const DefaultWindowS = 60.0

// op returns the comparison operator with its default applied.
func (r Rule) op() string {
	if r.Op == "" {
		return ">"
	}
	return r.Op
}

// threshold returns the value the rule compares against.
func (r Rule) threshold() float64 {
	if r.Kind == KindSLOBurn {
		return r.MaxBurnPct
	}
	return r.Value
}

// window returns the rule's trailing window with its default applied.
func (r Rule) window() float64 {
	if r.WindowS > 0 {
		return r.WindowS
	}
	return DefaultWindowS
}

func (r Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("tsdb: rule with empty name")
	}
	switch r.op() {
	case ">", ">=", "<", "<=":
	default:
		return fmt.Errorf("tsdb: rule %q: unknown op %q", r.Name, r.Op)
	}
	switch r.Kind {
	case KindThreshold:
		if r.Series == "" {
			return fmt.Errorf("tsdb: threshold rule %q needs a series", r.Name)
		}
	case KindRateOfChange:
		if r.Series == "" {
			return fmt.Errorf("tsdb: rate_of_change rule %q needs a series", r.Name)
		}
	case KindSLOBurn:
		if r.ObjectiveS <= 0 {
			return fmt.Errorf("tsdb: slo_burn rule %q needs objective_s > 0", r.Name)
		}
	default:
		return fmt.Errorf("tsdb: rule %q: unknown kind %q", r.Name, r.Kind)
	}
	if r.WindowS < 0 || r.ForS < 0 {
		return fmt.Errorf("tsdb: rule %q: negative window_s or for_s", r.Name)
	}
	return nil
}

// ValidateRules applies the per-rule checks plus the set-level
// duplicate-name check; ParseRules and New run it, and layers that
// accept rules programmatically (experiments.Options) run it up front
// so a bad rule fails the sweep before any cell starts.
func ValidateRules(rules []Rule) error {
	seen := make(map[string]bool, len(rules))
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return err
		}
		if seen[r.Name] {
			return fmt.Errorf("tsdb: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	return nil
}

// ParseRules parses an alert-rules file: a JSON object {"rules": [...]}
// of Rule entries. Unknown fields are rejected so typos fail loudly
// instead of silently disabling a rule.
func ParseRules(data []byte) ([]Rule, error) {
	var doc struct {
		Rules []Rule `json:"rules"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("tsdb: parsing alert rules: %w", err)
	}
	if len(doc.Rules) == 0 {
		return nil, fmt.Errorf("tsdb: alert-rules file has no rules")
	}
	if err := ValidateRules(doc.Rules); err != nil {
		return nil, err
	}
	return doc.Rules, nil
}

// AlertEvent is one firing or resolved transition in the alert log.
type AlertEvent struct {
	Rule  string `json:"rule"`
	State string `json:"state"`
	// TimeS is the virtual time of the transition.
	TimeS float64 `json:"time_s"`
	// Value is the rule's evaluated value at the transition; Threshold
	// is what it was compared against.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Severity  string  `json:"severity,omitempty"`
	Message   string  `json:"message,omitempty"`
}

// ActiveAlert is one currently-firing rule in an AlertsDump.
type ActiveAlert struct {
	Rule string `json:"rule"`
	// SinceS is the virtual time the rule started firing.
	SinceS    float64 `json:"since_s"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Severity  string  `json:"severity,omitempty"`
}

// compare applies op to (v, threshold).
func compare(op string, v, threshold float64) bool {
	switch op {
	case ">=":
		return v >= threshold
	case "<":
		return v < threshold
	case "<=":
		return v <= threshold
	default:
		return v > threshold
	}
}

// ruleState is one rule's evaluation state machine: inactive → pending
// (condition holds, ForS not yet elapsed) → firing → resolved.
type ruleState struct {
	rule         Rule
	pendingSince float64 // virtual time the condition started holding; -1 when clear
	firing       bool
	firingSince  float64
	lastValue    float64
	// window holds an slo_burn rule's trailing finished-query
	// observations (finish time, whether the objective was exceeded).
	window []burnObs
	// burn is an slo_burn rule's series, created at its first value.
	burn *Series
}

type burnObs struct {
	t    float64
	over bool
}

// value evaluates the rule at virtual time now. ok is false when the
// rule has no data yet (empty series, empty burn window): no-data never
// fires and never resolves a firing alert spuriously — it keeps the
// previous condition outcome false only when nothing ever fired.
func (db *DB) ruleValue(rs *ruleState, now float64) (v float64, ok bool) {
	r := rs.rule
	switch r.Kind {
	case KindThreshold:
		s := db.series[r.Series]
		if s == nil {
			return 0, false
		}
		p, ok := s.Latest()
		return p.V, ok
	case KindRateOfChange:
		s := db.series[r.Series]
		if s == nil {
			return 0, false
		}
		last, ok := s.Latest()
		if !ok {
			return 0, false
		}
		prev, ok := s.At(now - r.window())
		if !ok || last.T <= prev.T {
			return 0, false
		}
		return (last.V - prev.V) / (last.T - prev.T), true
	case KindSLOBurn:
		// Trim the window in place, then burn = % of finished queries
		// over the objective.
		cut := now - r.window()
		w := rs.window
		i := 0
		for i < len(w) && w[i].t < cut {
			i++
		}
		if i > 0 {
			w = w[:copy(w, w[i:])]
			rs.window = w
		}
		if len(w) == 0 {
			return 0, false
		}
		over := 0
		for _, o := range w {
			if o.over {
				over++
			}
		}
		return float64(over) / float64(len(w)) * 100, true
	}
	return 0, false
}

// transition advances the rule's state machine and appends firing /
// resolved events.
func (db *DB) transition(rs *ruleState, now, value float64, cond bool) {
	r := rs.rule
	rs.lastValue = value
	if cond {
		if rs.firing {
			return
		}
		if rs.pendingSince < 0 {
			rs.pendingSince = now
		}
		if now-rs.pendingSince >= r.ForS {
			rs.firing = true
			rs.firingSince = now
			db.emit(AlertEvent{
				Rule: r.Name, State: StateFiring, TimeS: now,
				Value: value, Threshold: r.threshold(), Severity: r.Severity,
				Message: fmt.Sprintf("%s: %.4g %s %.4g", r.Kind, value, r.op(), r.threshold()),
			})
		}
		return
	}
	rs.pendingSince = -1
	if rs.firing {
		rs.firing = false
		db.emit(AlertEvent{
			Rule: r.Name, State: StateResolved, TimeS: now,
			Value: value, Threshold: r.threshold(), Severity: r.Severity,
		})
	}
}
