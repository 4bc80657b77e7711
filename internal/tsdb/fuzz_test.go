package tsdb

import (
	"encoding/json"
	"reflect"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/sim"
)

// FuzzParseRules feeds the alert-rules loader hostile documents.
// ParseRules must never panic, and every rule set it accepts must pass
// ValidateRules, survive a marshal and re-parse unchanged, and be
// accepted by New.
func FuzzParseRules(f *testing.F) {
	eng := sim.NewEngine()
	jt := mapreduce.NewJobTracker(cluster.New(eng, cluster.PaperConfig()), mapreduce.DefaultConfig(), nil)
	f.Fuzz(func(t *testing.T, doc []byte) {
		rules, err := ParseRules(doc)
		if err != nil {
			return
		}
		if err := ValidateRules(rules); err != nil {
			t.Fatalf("ParseRules accepted rules ValidateRules rejects: %v", err)
		}
		out, err := json.Marshal(struct {
			Rules []Rule `json:"rules"`
		}{rules})
		if err != nil {
			t.Fatalf("marshaling accepted rules: %v", err)
		}
		again, err := ParseRules(out)
		if err != nil {
			t.Fatalf("marshaled rules do not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(again, rules) {
			t.Fatalf("rules changed in a round trip:\n%+v\n%+v", rules, again)
		}
		if _, err := New(jt, Config{Rules: rules}); err != nil {
			t.Fatalf("New rejects parsed rules: %v", err)
		}
	})
}
