package sampling

import (
	"math"
	"math/rand"
	"testing"
)

// rngSeeds are the seeds the lazy source must replay math/rand on: the
// reductions' edge cases (0 and the multiples of 2³¹−1 map to
// math/rand's fixed fallback seed, negatives wrap), large magnitudes,
// and random int64s.
func rngSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, lehmerM - 1, lehmerM, -lehmerM, 2 * lehmerM, 7 * lehmerM, -3 * lehmerM,
		lehmerM + 1, 1 << 31, 1 << 40, -1 << 40, 1 << 50, -1 << 50, 89482311, math.MaxInt64, math.MinInt64}
	r := rand.New(rand.NewSource(20121002))
	for i := 0; i < 64; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// The lazy source's raw outputs equal math/rand's for 3 × 607 Uint64
// draws per seed: past the tap's wrap at draw 273, the feed's at 334
// and the register's at 607, where the first computed words are read
// back. (rand.Rand's Int63n and Float64 below draw through Int63.)
func TestLazySourceMatchesMathRand(t *testing.T) {
	lazy := &lazySource{}
	for _, seed := range rngSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		lazy.Seed(seed)
		for d := 0; d < 3*lagLen; d++ {
			if g, w := lazy.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, d, g, w)
			}
		}
	}
}

// Through rand.Rand, a pooled generator gives the same Shuffle, Int63n
// and Float64 draws as a fresh math/rand one, including after a reseed
// midway through a sequence, where it must carry nothing over. The
// rounds end after about 159, 279 and 1,559 draws: with the register partly
// computed, past the tap's wrap only, and past two register wraps.
func TestPooledRandReplaysMathRand(t *testing.T) {
	for _, seed := range rngSeeds() {
		got := seededRand(seed)
		for round, s := range []int64{seed, seed ^ 0x5eed, seed} {
			if round > 0 {
				got.Seed(s)
			}
			want := rand.New(rand.NewSource(s))
			a, b := make([]int, 160), make([]int, 160)
			for i := range a {
				a[i], b[i] = i, i
			}
			got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d round %d: shuffle slot %d = %d, want %d", s, round, i, a[i], b[i])
				}
			}
			for i := 0; i < []int{0, 60, 700}[round]; i++ {
				if g, w := got.Int63n(int64(i)+1), want.Int63n(int64(i)+1); g != w {
					t.Fatalf("seed %d round %d: Int63n draw %d = %d, want %d", s, round, i, g, w)
				}
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d round %d: Float64 draw %d = %v, want %v", s, round, i, g, w)
				}
			}
		}
		rngPool.Put(got)
	}
}
