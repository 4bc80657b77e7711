package qstats

import (
	"math"
	"testing"
)

func TestHistBasics(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty hist not zero")
	}
	vals := []float64{0.002, 0.01, 0.05, 0.25, 1.3, 7}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count = %d", h.Count())
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if math.Abs(h.Sum()-sum) > 1e-12 {
		t.Fatalf("sum = %g want %g", h.Sum(), sum)
	}
	if h.Max() != 7 {
		t.Fatalf("max = %g", h.Max())
	}
	// Quantile estimates are bucket upper bounds: at least the true
	// quantile, at most one bucket ratio (2^(1/8)) above it.
	ratio := math.Exp2(1.0 / histBucketsPerOctave)
	for i, q := range []float64{0.5, 0.9, 0.99} {
		truth := []float64{0.05, 7, 7}[i]
		got := h.Quantile(q)
		if got < truth || got > truth*ratio*(1+1e-9) {
			t.Errorf("Quantile(%g) = %g, want within [%g, %g]", q, got, truth, truth*ratio)
		}
	}
	// Monotone in q.
	if h.Quantile(0.99) < h.Quantile(0.5) {
		t.Fatal("quantiles not monotone")
	}
	// Sub-floor and negative observations land in bucket 0 whose upper
	// bound is the floor.
	var lo Hist
	lo.Observe(1e-6)
	lo.Observe(-3)
	if got := lo.Quantile(0.9); got != histMinBound {
		t.Fatalf("sub-floor quantile = %g, want %g", got, histMinBound)
	}
}

func TestHistCumulativeLE(t *testing.T) {
	var h Hist
	vals := []float64{0.0005, 0.002, 0.003, 0.01, 0.1, 2, 500, 1e7}
	for _, v := range vals {
		h.Observe(v)
	}
	for _, tc := range []struct {
		le   float64
		want int64
	}{
		{0.001, 1}, {0.004, 3}, {0.016, 4}, {0.256, 5}, {4.096, 6}, {1048.576, 7},
	} {
		if got := h.CumulativeLE(tc.le); got != tc.want {
			t.Errorf("CumulativeLE(%g) = %d, want %d", tc.le, got, tc.want)
		}
	}
	// The +Inf bucket in the exposition uses Count directly.
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestQPSWindow(t *testing.T) {
	w := qpsWindow{window: 60}
	for i := 0; i < 30; i++ {
		w.add(float64(i)) // one event per second for 30s
	}
	if got := w.rate(30); got != 0.5 {
		t.Fatalf("rate = %g, want 0.5", got)
	}
	// 70s later everything has expired.
	if got := w.rate(100); got != 0 {
		t.Fatalf("rate after expiry = %g, want 0", got)
	}
	// Compaction keeps the window correct.
	for i := 0; i < 1000; i++ {
		w.add(100 + float64(i)*0.01)
		w.rate(100 + float64(i)*0.01)
	}
	if got := w.rate(110); math.Abs(got-1000.0/60) > 1e-9 {
		t.Fatalf("rate after churn = %g, want %g", got, 1000.0/60)
	}
}
