package qstats

import "math"

// Log-bucketed latency histogram. Buckets are geometric with 8 buckets
// per octave (ratio 2^(1/8) ≈ 1.09): bucket 0 holds everything below
// histMinBound seconds, bucket i (i >= 1) holds [minBound·2^((i-1)/8),
// minBound·2^(i/8)), and the last bucket is the overflow. 28 octaves
// above the 1 ms floor cover latencies up to ~3 virtual days, so a
// quantile estimate is never more than one bucket ratio (~9%) above
// the true value.
const (
	histMinBound         = 1e-3 // seconds; upper bound of bucket 0
	histBucketsPerOctave = 8
	histNumBuckets       = 1 + 28*histBucketsPerOctave
)

// Hist is a fixed-shape log-bucketed histogram. The zero value is
// ready to use. Not safe for concurrent use; the Registry serialises
// access.
type Hist struct {
	counts [histNumBuckets]int64
	count  int64
	sum    float64
	max    float64
}

func histBucketOf(v float64) int {
	if !(v >= histMinBound) { // also catches NaN and negatives
		return 0
	}
	i := 1 + int(math.Floor(math.Log2(v/histMinBound)*histBucketsPerOctave))
	if i >= histNumBuckets {
		return histNumBuckets - 1
	}
	return i
}

// histBucketUpper returns bucket i's exclusive upper bound in seconds
// (+Inf for the overflow bucket).
func histBucketUpper(i int) float64 {
	if i >= histNumBuckets-1 {
		return math.Inf(1)
	}
	return histMinBound * math.Exp2(float64(i)/histBucketsPerOctave)
}

// Observe folds one latency (seconds) into the histogram.
func (h *Hist) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[histBucketOf(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count }

// Sum returns the sum of observations in seconds.
func (h *Hist) Sum() float64 { return h.sum }

// Max returns the exact maximum observation (0 when empty).
func (h *Hist) Max() float64 { return h.max }

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket where the cumulative count first reaches ceil(q·count).
// The estimate is an upper bound on the true quantile, at most one
// bucket ratio above it, and it is not clamped to Max. Returns 0 when
// empty. For the overflow
// bucket the exact Max is returned instead of +Inf.
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var cum int64
	for i := 0; i < histNumBuckets; i++ {
		cum += h.counts[i]
		if cum >= target {
			if i == histNumBuckets-1 {
				return h.max
			}
			return histBucketUpper(i)
		}
	}
	return h.max
}

// CumulativeLE returns the number of observations in buckets whose
// upper bound is <= le: the value of a Prometheus cumulative _bucket
// sample. Exact when le lies on a bucket boundary (the exposition
// ladder uses powers of 4 above the 1 ms floor, which are).
func (h *Hist) CumulativeLE(le float64) int64 {
	var cum int64
	for i := 0; i < histNumBuckets-1; i++ {
		if histBucketUpper(i) > le*(1+1e-12) {
			break
		}
		cum += h.counts[i]
	}
	return cum
}

// qpsWindow counts events inside a sliding wall-clock window.
type qpsWindow struct {
	window float64 // seconds
	times  []float64
	head   int
}

func (w *qpsWindow) add(t float64) { w.times = append(w.times, t) }

// rate returns events-per-second over the window ending at now,
// discarding expired entries as it goes.
func (w *qpsWindow) rate(now float64) float64 {
	cut := now - w.window
	for w.head < len(w.times) && w.times[w.head] < cut {
		w.head++
	}
	if w.head > 64 && w.head*2 > len(w.times) {
		w.times = append(w.times[:0:0], w.times[w.head:]...)
		w.head = 0
	}
	if w.window <= 0 {
		return 0
	}
	return float64(len(w.times)-w.head) / w.window
}
