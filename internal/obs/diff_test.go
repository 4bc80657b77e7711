package obs

import (
	"strings"
	"testing"

	"dynamicmr/internal/diag"
)

// TestDiffHTML renders a one-job diff in which B waited 10 s longer on
// the Input Provider.
func TestDiffHTML(t *testing.T) {
	side := func(wait float64) *diag.JobDiagnosis {
		return &diag.JobDiagnosis{MakespanS: wait + 90,
			Breakdown: diag.Breakdown{ProviderWaitS: wait, MapComputeS: 90},
			CriticalPath: []diag.PathNode{
				{Kind: diag.KindProviderWait, End: wait, Task: -1, Node: -1},
				{Kind: diag.KindMapCPU, Start: wait, End: wait + 90, Attempt: 1},
			}}
	}
	rep := &diag.DiffReport{Schema: diag.DiffSchemaVersion, ALabel: "baseline", BLabel: "delayed-grow",
		TotalMakespanDeltaS: 10,
		Jobs: []diag.JobDelta{{Key: "q-000001", AMakespanS: 95, BMakespanS: 105, MakespanDeltaS: 10,
			Components: []diag.ComponentDelta{
				{Name: "provider-wait", AS: 5, BS: 15, DeltaS: 10},
				{Name: "map-compute", AS: 90, BS: 90},
			},
			A: side(5), B: side(15)}},
	}
	var b strings.Builder
	if err := WriteDiffHTML(&b, rep); err != nil {
		t.Fatal(err)
	}
	html := b.String()
	for _, want := range []string{"<!DOCTYPE html>", "provider-wait", "q-000001", "<svg", "map-compute"} {
		if !strings.Contains(html, want) {
			t.Errorf("HTML output missing %q", want)
		}
	}
}
