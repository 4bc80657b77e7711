package trace

import "testing"

func TestGaugeAggregation(t *testing.T) {
	tr := New(Config{Enabled: true})

	if _, ok := tr.Gauges()["never.set"]; ok {
		t.Fatal("unset gauge reported ok")
	}

	for _, v := range []float64{40, 10, -5, 25} {
		tr.SetGauge("queue.depth", v)
	}
	g, ok := tr.Gauges()["queue.depth"]
	if !ok {
		t.Fatal("gauge missing after SetGauge")
	}
	if g.Last != 25 || g.Min != -5 || g.Max != 40 || g.Sum != 70 || g.Count != 4 {
		t.Fatalf("snapshot = %+v, want last 25 min -5 max 40 sum 70 count 4", g)
	}

	tr.SetGauge("other", 1)
	all := tr.Gauges()
	if len(all) != 2 {
		t.Fatalf("Gauges() returned %d entries, want 2", len(all))
	}
	// The copy is detached from the registry.
	all["queue.depth"] = GaugeSnapshot{}
	if g2 := tr.Gauges()["queue.depth"]; g2.Count != 4 {
		t.Fatal("Gauges() copy aliases the registry")
	}
}

func TestGaugeNilTracer(t *testing.T) {
	var tr *Tracer
	tr.SetGauge("x", 1) // must not panic
	if _, ok := tr.Gauges()["x"]; ok {
		t.Fatal("nil tracer returned a gauge")
	}
	if tr.Gauges() != nil {
		t.Fatal("nil tracer returned a gauge map")
	}
}
