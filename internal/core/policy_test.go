package core

import (
	"math"
	"strings"
	"testing"
)

func TestBuiltinsCompile(t *testing.T) {
	ps := Builtins()
	if len(ps) != 5 {
		t.Fatalf("Builtins = %d policies, want 5 (Table I)", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
	}
	for _, want := range []string{PolicyHadoop, PolicyHA, PolicyMA, PolicyLA, PolicyC} {
		if !names[want] {
			t.Fatalf("missing builtin %q", want)
		}
	}
}

func mustGet(t *testing.T, r *Registry, name string) *Policy {
	t.Helper()
	p, err := r.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTableIGrabLimits(t *testing.T) {
	r := DefaultRegistry()
	// Idle 40-slot cluster: AS=40, TS=40.
	cases := []struct {
		policy string
		as     int
		want   int
	}{
		{PolicyHadoop, 40, math.MaxInt},
		{PolicyHA, 40, 40}, // max(20, 40)
		{PolicyMA, 40, 20}, // 0.5*40
		{PolicyLA, 40, 8},  // 0.2*40
		{PolicyC, 40, 4},   // 0.1*40
		// Saturated cluster: AS=0.
		{PolicyHadoop, 0, math.MaxInt},
		{PolicyHA, 0, 20}, // max(20, 0)
		{PolicyMA, 0, 8},  // 0.2*40
		{PolicyLA, 0, 4},  // 0.1*40
		{PolicyC, 0, 0},   // 0.1*0
	}
	for _, c := range cases {
		p := mustGet(t, r, c.policy)
		got, err := p.GrabLimit(c.as, 40)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s GrabLimit(AS=%d, TS=40) = %d, want %d", c.policy, c.as, got, c.want)
		}
	}
}

func TestGrabLimitCeil(t *testing.T) {
	p := &Policy{Name: "x", EvaluationIntervalS: 1, GrabLimitExpr: "0.1*AS"}
	got, err := p.GrabLimit(15, 40) // 1.5 -> 2
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("GrabLimit = %d, want ceil(1.5)=2", got)
	}
}

func TestWorkThresholds(t *testing.T) {
	r := DefaultRegistry()
	want := map[string]float64{
		PolicyHadoop: 0, PolicyHA: 0, PolicyMA: 5, PolicyLA: 10, PolicyC: 15,
	}
	for name, thr := range want {
		if p := mustGet(t, r, name); p.WorkThresholdPct != thr {
			t.Errorf("%s threshold = %v, want %v", name, p.WorkThresholdPct, thr)
		}
	}
}

func TestEvaluationIntervalFourSeconds(t *testing.T) {
	for _, p := range Builtins() {
		if p.EvaluationIntervalS != 4 {
			t.Errorf("%s interval = %v, want 4 (§III-B)", p.Name, p.EvaluationIntervalS)
		}
	}
}

// TestUnbounded: Hadoop's grab limit is infinite at every load, and
// C's never is.
func TestUnbounded(t *testing.T) {
	r := DefaultRegistry()
	hadoop, c := mustGet(t, r, PolicyHadoop), mustGet(t, r, PolicyC)
	for as := 0; as <= 40; as++ {
		if lim, err := hadoop.GrabLimit(as, 40); err != nil || lim != math.MaxInt {
			t.Errorf("Hadoop GrabLimit(AS=%d) = %d, %v; want unbounded", as, lim, err)
		}
		if lim, err := c.GrabLimit(as, 40); err != nil || lim == math.MaxInt {
			t.Errorf("C GrabLimit(AS=%d) = %d, %v; want bounded", as, lim, err)
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	bad := []*Policy{
		{Name: "", EvaluationIntervalS: 1, GrabLimitExpr: "1"},
		{Name: "x", EvaluationIntervalS: 0, GrabLimitExpr: "1"},
		{Name: "x", EvaluationIntervalS: 1, WorkThresholdPct: 101, GrabLimitExpr: "1"},
		{Name: "x", EvaluationIntervalS: 1, GrabLimitExpr: "1+"},
	}
	for i, p := range bad {
		if err := p.Compile(); err == nil {
			t.Errorf("bad policy %d compiled", i)
		}
	}
}

// TestGrabLimitNaNIsError: a formula that evaluates to NaN used to
// convert to math.MinInt64, which the JobClient then used as a slice
// bound.
func TestGrabLimitNaNIsError(t *testing.T) {
	for _, expr := range []string{"inf-inf", "AS*inf"} {
		p := &Policy{Name: "nan", EvaluationIntervalS: 4, GrabLimitExpr: expr}
		if got, err := p.GrabLimit(0, 40); err == nil {
			t.Errorf("%s: GrabLimit = %d, want an error", expr, got)
		}
	}
}

// TestGrabLimitClampsToMaxInt: a finite formula value too large for an
// int means unbounded, not math.MinInt64.
func TestGrabLimitClampsToMaxInt(t *testing.T) {
	for _, expr := range []string{"1e300", "TS*1e18", "9.3e18"} {
		p := &Policy{Name: "big", EvaluationIntervalS: 4, GrabLimitExpr: expr}
		got, err := p.GrabLimit(10, 40)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if got != math.MaxInt {
			t.Errorf("%s: GrabLimit = %d, want math.MaxInt", expr, got)
		}
	}
}

// TestPolicyRejectsNonFiniteInterval: NaN and +Inf evaluation intervals
// used to pass the positivity check.
func TestPolicyRejectsNonFiniteInterval(t *testing.T) {
	for _, iv := range []float64{math.NaN(), math.Inf(1)} {
		p := &Policy{Name: "x", EvaluationIntervalS: iv, GrabLimitExpr: "1"}
		if err := p.Compile(); err == nil {
			t.Errorf("evaluation interval %v accepted", iv)
		}
	}
}

// TestPolicyRejectsNaNThreshold: a NaN work threshold used to pass the
// [0,100] range check.
func TestPolicyRejectsNaNThreshold(t *testing.T) {
	p := &Policy{Name: "x", EvaluationIntervalS: 4, WorkThresholdPct: math.NaN(), GrabLimitExpr: "1"}
	if err := p.Compile(); err == nil {
		t.Error("NaN work threshold accepted")
	}
}

func TestRegistryLookup(t *testing.T) {
	r := DefaultRegistry()
	if _, err := r.Get("la"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := r.Get("nope"); err == nil {
		t.Error("unknown policy accepted")
	} else if !strings.Contains(err.Error(), "available") {
		t.Errorf("error should list available policies: %v", err)
	}
	if len(r.Names()) != 5 {
		t.Errorf("Names = %v", r.Names())
	}
}

func TestRegistryDuplicate(t *testing.T) {
	r := DefaultRegistry()
	err := r.Add(&Policy{Name: "hadoop", EvaluationIntervalS: 1, GrabLimitExpr: "1"})
	if err == nil {
		t.Fatal("duplicate (case-insensitive) accepted")
	}
}

func TestPolicyXMLRoundTrip(t *testing.T) {
	r := DefaultRegistry()
	doc, err := r.PolicyXML()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "<policies>") || !strings.Contains(string(doc), "grabLimit") {
		t.Fatalf("unexpected xml:\n%s", doc)
	}
	r2, err := ParsePolicyXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Names()) != 5 {
		t.Fatalf("round-trip lost policies: %v", r2.Names())
	}
	for _, name := range r.Names() {
		a := mustGet(t, r, name)
		b := mustGet(t, r2, name)
		if a.GrabLimitExpr != b.GrabLimitExpr || a.WorkThresholdPct != b.WorkThresholdPct ||
			a.EvaluationIntervalS != b.EvaluationIntervalS {
			t.Fatalf("policy %s changed in round trip: %+v vs %+v", name, a, b)
		}
	}
	// Behaviour preserved too.
	ga, _ := mustGet(t, r, PolicyMA).GrabLimit(10, 40)
	gb, _ := mustGet(t, r2, PolicyMA).GrabLimit(10, 40)
	if ga != gb {
		t.Fatalf("grab limits diverge after round trip: %d vs %d", ga, gb)
	}
}

func TestParsePolicyXMLErrors(t *testing.T) {
	if _, err := ParsePolicyXML([]byte("not xml <")); err == nil {
		t.Error("malformed xml accepted")
	}
	bad := `<policies><policy name="x"><evaluationIntervalSeconds>1</evaluationIntervalSeconds><grabLimit>1+</grabLimit></policy></policies>`
	if _, err := ParsePolicyXML([]byte(bad)); err == nil {
		t.Error("bad grab expression accepted")
	}
}

func TestResponseString(t *testing.T) {
	if EndOfInput.String() != "end of input" ||
		InputAvailable.String() != "input available" ||
		NoInputAvailable.String() != "no input available" {
		t.Fatal("response names wrong")
	}
}
