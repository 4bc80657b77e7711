package trace

import (
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exposition encoder byte-for-byte:
// HELP/TYPE lines, label escaping (backslash, quote, newline), name
// sanitization (dots and dashes to underscores, leading digits
// prefixed), and deterministic family ordering regardless of input
// order.
func TestWritePrometheusGolden(t *testing.T) {
	families := []PromFamily{
		{
			Name: "dynmr.node.cpu_util_pct",
			Help: "Per-node CPU utilisation.",
			Type: PromGauge,
			Samples: []PromSample{
				{Labels: []PromLabel{{Name: "node", Value: "0"}}, Value: 87.5},
				{Labels: []PromLabel{{Name: "node", Value: "1"}}, Value: 12},
			},
		},
		{
			Name: "2map.attempts",
			Help: `backslash \ and
newline in help`,
			Type:    PromCounter,
			Samples: []PromSample{{Value: 42}},
		},
		{
			Name: "dynmr.policy.evals",
			Help: "Evaluations per policy.",
			Type: PromCounter,
			Samples: []PromSample{
				{Labels: []PromLabel{{Name: "policy", Value: `LA "quoted" \ slash` + "\nnewline"}}, Value: 7},
			},
		},
		{Name: "empty.family", Help: "No samples: omitted.", Type: PromGauge},
		{Name: "no.type", Samples: []PromSample{{Value: 1.5}}},
	}

	var b strings.Builder
	if err := WritePrometheus(&b, families); err != nil {
		t.Fatal(err)
	}
	want := `# HELP _2map_attempts backslash \\ and\nnewline in help
# TYPE _2map_attempts counter
_2map_attempts 42
# HELP dynmr_node_cpu_util_pct Per-node CPU utilisation.
# TYPE dynmr_node_cpu_util_pct gauge
dynmr_node_cpu_util_pct{node="0"} 87.5
dynmr_node_cpu_util_pct{node="1"} 12
# HELP dynmr_policy_evals Evaluations per policy.
# TYPE dynmr_policy_evals counter
dynmr_policy_evals{policy="LA \"quoted\" \\ slash\nnewline"} 7
# TYPE no_type untyped
no_type 1.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusHistogramGolden pins the histogram exposition
// byte-for-byte: one # TYPE histogram declaration followed by
// _bucket{le=...} series (cumulative, ending at +Inf), _sum and _count
// — the shape qstats emits for its per-policy latency families.
func TestWritePrometheusHistogramGolden(t *testing.T) {
	families := []PromFamily{
		{
			Name: "dynmr.query.latency_wall_s",
			Help: "Wall-clock query latency.",
			Type: PromHistogram,
			Samples: []PromSample{
				{Suffix: "_bucket", Labels: []PromLabel{{Name: "policy", Value: "LA"}, {Name: "le", Value: "0.001"}}, Value: 0},
				{Suffix: "_bucket", Labels: []PromLabel{{Name: "policy", Value: "LA"}, {Name: "le", Value: "0.004"}}, Value: 3},
				{Suffix: "_bucket", Labels: []PromLabel{{Name: "policy", Value: "LA"}, {Name: "le", Value: "+Inf"}}, Value: 5},
				{Suffix: "_sum", Labels: []PromLabel{{Name: "policy", Value: "LA"}}, Value: 0.0625},
				{Suffix: "_count", Labels: []PromLabel{{Name: "policy", Value: "LA"}}, Value: 5},
			},
		},
	}
	var b strings.Builder
	if err := WritePrometheus(&b, families); err != nil {
		t.Fatal(err)
	}
	want := `# HELP dynmr_query_latency_wall_s Wall-clock query latency.
# TYPE dynmr_query_latency_wall_s histogram
dynmr_query_latency_wall_s_bucket{policy="LA",le="0.001"} 0
dynmr_query_latency_wall_s_bucket{policy="LA",le="0.004"} 3
dynmr_query_latency_wall_s_bucket{policy="LA",le="+Inf"} 5
dynmr_query_latency_wall_s_sum{policy="LA"} 0.0625
dynmr_query_latency_wall_s_count{policy="LA"} 5
`
	if got := b.String(); got != want {
		t.Errorf("histogram exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestPromFamiliesFromRegistry(t *testing.T) {
	tr := New(Config{Enabled: true})
	tr.Inc(CounterMapAttempts, 12)
	tr.Observe(HistMapDuration, 2)
	tr.Observe(HistMapDuration, 6)

	var b strings.Builder
	if err := WritePrometheus(&b, tr.PromFamilies("dynmr.")); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"# TYPE dynmr_map_attempts_total counter",
		"dynmr_map_attempts_total 12",
		"dynmr_map_duration_s_count 2",
		"dynmr_map_duration_s_sum 8",
		"dynmr_map_duration_s_min 2",
		"dynmr_map_duration_s_max 6",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing line %q:\n%s", line, out)
		}
	}

	if (*Tracer)(nil).PromFamilies("x") != nil {
		t.Fatal("nil tracer produced families")
	}
}
