package diag

import (
	"encoding/json"
	"io"
	"strings"
)

// WriteJSON emits the diff as indented JSON (schema DiffSchemaVersion).
func (r *DiffReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders a human-readable cross-run comparison.
func (r *DiffReport) WriteText(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("run diff: A=%s  B=%s  (%d aligned job(s); deltas are B−A)\n",
		r.ALabel, r.BLabel, len(r.Jobs))
	bw.printf("total makespan delta: %+.3fs\n", r.TotalMakespanDeltaS)
	for _, j := range r.Jobs {
		bw.printf("\n%s: job %d vs job %d — makespan %.3fs → %.3fs (%+.3fs)\n",
			j.Key, j.AJob, j.BJob, j.AMakespanS, j.BMakespanS, j.MakespanDeltaS)
		bw.printf("  %-18s %12s %12s %12s\n", "component", "A (s)", "B (s)", "delta (s)")
		for _, c := range j.Components {
			if c.AS == 0 && c.BS == 0 {
				continue
			}
			bw.printf("  %-18s %12.3f %12.3f %+12.3f\n", c.Name, c.AS, c.BS, c.DeltaS)
		}
		if d := j.FirstDivergence; d != nil {
			bw.printf("  first divergent decision at index %d (%s):\n", d.Index, d.Reason)
			if d.A != nil {
				bw.printf("    A: t=%.3fs %s %s added=%d limit=%d\n",
					d.A.TimeS, d.A.Policy, d.A.Verdict, d.A.Added, d.A.GrabLimit)
			} else {
				bw.printf("    A: (sequence ended)\n")
			}
			if d.B != nil {
				bw.printf("    B: t=%.3fs %s %s added=%d limit=%d\n",
					d.B.TimeS, d.B.Policy, d.B.Verdict, d.B.Added, d.B.GrabLimit)
			} else {
				bw.printf("    B: (sequence ended)\n")
			}
		} else {
			bw.printf("  provider decisions: identical twins\n")
		}
		if j.Path.FirstKindDifference >= 0 {
			bw.printf("  critical path: %d vs %d node(s), first kind difference at node %d\n",
				j.Path.ANodes, j.Path.BNodes, j.Path.FirstKindDifference)
		} else {
			bw.printf("  critical path: %d vs %d node(s), same kind sequence\n",
				j.Path.ANodes, j.Path.BNodes)
		}
		for _, s := range j.AnomaliesOnlyA {
			bw.printf("  anomaly only in A: %s\n", s)
		}
		for _, s := range j.AnomaliesOnlyB {
			bw.printf("  anomaly only in B: %s\n", s)
		}
	}
	if len(r.OnlyA) > 0 {
		bw.printf("\nonly in A: %s\n", strings.Join(r.OnlyA, ", "))
	}
	if len(r.OnlyB) > 0 {
		bw.printf("only in B: %s\n", strings.Join(r.OnlyB, ", "))
	}
	if len(r.AlertsOnlyA) > 0 {
		bw.printf("\nalerts only in A: %s\n", strings.Join(r.AlertsOnlyA, ", "))
	}
	if len(r.AlertsOnlyB) > 0 {
		bw.printf("alerts only in B: %s\n", strings.Join(r.AlertsOnlyB, ", "))
	}
	if len(r.CounterDeltas) > 0 {
		bw.printf("\ncounter deltas:\n")
		for _, c := range r.CounterDeltas {
			bw.printf("  %-28s %12d %12d %+12d\n", c.Name, c.A, c.B, c.Delta)
		}
	}
	return bw.err
}
