package core

import (
	"testing"
)

// FuzzParsePolicyXML feeds the policy.xml loader hostile documents. It
// is the only way user input reaches the grab-limit expression language
// (internal/policyexpr). ParsePolicyXML must never panic. Every policy
// it accepts must give a grab limit that is an error or a
// non-negative partition count on a small grid of cluster states, and
// the registry must survive PolicyXML → ParsePolicyXML unchanged.
func FuzzParsePolicyXML(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		r, err := ParsePolicyXML(doc)
		if err != nil {
			return
		}
		for _, name := range r.Names() {
			p := mustGet(t, r, name)
			for _, ts := range []int{0, 1, 40, 640} {
				for _, as := range []int{0, 1, ts / 2, ts} {
					for _, qt := range []int{0, 7, 1000} {
						lim, err := p.GrabLimitWith(as, ts, qt)
						if err == nil && lim < 0 {
							t.Fatalf("policy %q (%q): GrabLimitWith(%d, %d, %d) = %d",
								name, p.GrabLimitExpr, as, ts, qt, lim)
						}
					}
				}
			}
		}
		out, err := r.PolicyXML()
		if err != nil {
			t.Fatalf("rendering an accepted registry: %v", err)
		}
		r2, err := ParsePolicyXML(out)
		if err != nil {
			t.Fatalf("rendered policy.xml does not re-parse: %v\n%s", err, out)
		}
		if a, b := r.Names(), r2.Names(); len(a) != len(b) {
			t.Fatalf("re-parse changed the policy list: %q vs %q", a, b)
		}
		for i, name := range r.Names() {
			a, b := mustGet(t, r, name), mustGet(t, r2, r2.Names()[i])
			if a.Name != b.Name || a.Description != b.Description ||
				a.EvaluationIntervalS != b.EvaluationIntervalS ||
				a.WorkThresholdPct != b.WorkThresholdPct || a.GrabLimitExpr != b.GrabLimitExpr {
				t.Fatalf("policy %d changed in a round trip:\n%+v\n%+v\n%s", i, a, b, out)
			}
		}
	})
}
