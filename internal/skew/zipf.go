// Package skew models the paper's §V-B data-skew methodology: the
// assignment of each predicate-matching record to an input partition is
// a random variable drawn from a Zipfian distribution over partition
// ranks, with exponent z in {0, 1, 2} giving zero, moderate and high
// skew.
package skew

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Weights returns the normalised Zipf(z) probability of each rank
// 1..n (index 0 is rank 1): f(k; z, N) = (1/k^z) / Σ(1/n^z).
func Weights(z float64, n int) []float64 {
	if n <= 0 {
		panic(fmt.Sprintf("skew: n must be positive, got %d", n))
	}
	if z < 0 {
		panic(fmt.Sprintf("skew: z must be non-negative, got %v", z))
	}
	w := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		v := 1 / math.Pow(float64(k), z)
		w[k-1] = v
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Sampler draws partition ranks from Zipf(z, n) using inverse-CDF
// sampling with a deterministic seed.
type Sampler struct {
	cdf []float64
	rng *rand.Rand
}

// NewSampler creates a sampler over ranks [0, n) with exponent z.
func NewSampler(z float64, n int, seed int64) *Sampler {
	w := Weights(z, n)
	cdf := make([]float64, n)
	acc := 0.0
	for i, v := range w {
		acc += v
		cdf[i] = acc
	}
	cdf[n-1] = 1.0 // guard against rounding
	return &Sampler{cdf: cdf, rng: rand.New(rand.NewSource(seed))}
}

// Draw returns a rank in [0, n); rank 0 is the most frequent.
func (s *Sampler) Draw() int {
	u := s.rng.Float64()
	return sort.SearchFloat64s(s.cdf, u)
}

// Counts draws `total` assignments from Zipf(z, n) and returns how many
// landed on each rank. This is the paper's data-generation method: every
// matching record's containing partition is an independent Zipfian draw.
func Counts(total int64, z float64, n int, seed int64) []int64 {
	s := NewSampler(z, n, seed)
	counts := make([]int64, n)
	for i := int64(0); i < total; i++ {
		counts[s.Draw()]++
	}
	return counts
}
