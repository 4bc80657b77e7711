package sampling

import (
	"math/rand"
	"sync"

	"dynamicmr/internal/mapreduce"
)

// lazySource is a math/rand.Source64 that yields exactly the sequence
// of rand.NewSource(seed) — every split order and reservoir in the
// repository's goldens is drawn from that sequence — but seeds in O(1).
//
// math/rand's source is an additive lagged Fibonacci generator over a
// 607-word register. Its Seed fills every word from a Lehmer sequence
// x[n] = seed·48271ⁿ mod (2³¹−1): word i is
//
//	(x[21+3i]<<40) ^ (x[22+3i]<<20) ^ x[23+3i] ^ cooked[i]
//
// which costs 1,841 dependent Lehmer steps per seed, while a 160-split
// shuffle reads about half the register. lazySource computes a word
// from a table of the powers 48271ⁿ the first time a draw reads it, so
// a reseed costs nothing and each draw's word costs three independent
// multiplications.
//
// Which words a draw reads first is fixed: draw d (counting from 0)
// reads the feed word 333−d and the tap word 606−d. The feed word is
// unread for d < 334 and the tap word for d < 273; every later read
// finds a word an earlier draw stored. So a draw counter, not a
// per-word flag, says which words still need computing.
type lazySource struct {
	x     uint64 // the seed reduced to [1, 2³¹−2], as rngSource.Seed reduces it
	drawn int    // draws since Seed, counted up to lagFeed
	tap   int
	feed  int
	vec   [lagLen]int64
}

const (
	lagLen  = 607 // register length (math/rand's rngLen)
	lagTap  = 273 // tap distance (rngTap)
	lagFeed = lagLen - lagTap
	lehmerM = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	lehmerA = 48271
)

var (
	// lehmerPow[i] holds 48271ⁿ mod (2³¹−1) for n = 21+3i, 22+3i, 23+3i:
	// the multipliers of register word i's three Lehmer terms.
	lehmerPow [lagLen][3]uint64
	// cooked is the constant math/rand XORs into each seeded word. It is
	// recovered at init from rand.NewSource(1)'s first 607 outputs, so
	// no copy of math/rand's table is kept here.
	cooked [lagLen]int64
)

func init() {
	p := uint64(1)
	for n := 1; n < 21; n++ {
		p = mulMod(p, lehmerA)
	}
	for i := range lehmerPow {
		for k := range lehmerPow[i] {
			p = mulMod(p, lehmerA)
			lehmerPow[i][k] = p
		}
	}
	// Invert the first lagLen outputs o[d] of a source seeded with 1
	// for its register V. Draw d computes V[feed] + (word at tap) and
	// stores it at feed; a tap word is still V for d < 273 and the
	// output of draw d−273 after, and draws d ≥ 334 read feed words
	// 606…334, still V. That yields every V[j], and cooked[j] is V[j]
	// with seed 1's Lehmer terms taken off.
	src := rand.NewSource(1).(rand.Source64)
	var o [lagLen]int64
	for d := range o {
		o[d] = int64(src.Uint64())
	}
	var v [lagLen]int64
	for d := lagTap; d < lagLen; d++ {
		feed := (lagFeed - 1 - d + lagLen) % lagLen
		v[feed] = o[d] - o[d-lagTap]
	}
	for d := 0; d < lagTap; d++ {
		v[lagFeed-1-d] = o[d] - v[lagLen-1-d]
	}
	for j := range cooked {
		cooked[j] = v[j] ^ lehmerWord(1, j)
	}
}

// mulMod returns a·b mod (2³¹−1) for a, b < 2³¹: 2³¹ ≡ 1, so the
// 62-bit product folds into its high and low 31 bits.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerM + p>>31
	r = r&lehmerM + r>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// lehmerWord is register word i's three Lehmer terms for the reduced
// seed x, before cooked is XORed in.
func lehmerWord(x uint64, i int) int64 {
	pw := &lehmerPow[i]
	return int64(mulMod(x, pw[0])<<40 ^ mulMod(x, pw[1])<<20 ^ mulMod(x, pw[2]))
}

// Seed implements rand.Source. It reduces seed exactly as math/rand
// does and defers the register fill to the draws.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x = uint64(seed)
	s.drawn = 0
	s.tap = 0
	s.feed = lagFeed
}

// Uint64 implements rand.Source64: math/rand's step, computing the
// feed and tap words on their first read.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lagLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lagLen
	}
	if s.drawn < lagFeed {
		if s.drawn < lagTap {
			s.vec[s.tap] = lehmerWord(s.x, s.tap) ^ cooked[s.tap]
		}
		s.vec[s.feed] = lehmerWord(s.x, s.feed) ^ cooked[s.feed]
		s.drawn++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// rngPool recycles the generators of the per-job split shuffles and
// reservoir draws. Seeding a pooled one replays exactly the sequence
// rand.New(rand.NewSource(seed)) gives, without allocating the ~5 KB
// source each job or filling its register.
var rngPool = sync.Pool{New: func() any {
	src := &lazySource{}
	src.Seed(1)
	return rand.New(src)
}}

// seededRand returns a pooled generator seeded with seed. Return it to
// rngPool when done.
func seededRand(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// shuffleSplits permutes splits with a generator seeded with seed.
func shuffleSplits(splits []mapreduce.Split, seed int64) {
	rng := seededRand(seed)
	rng.Shuffle(len(splits), func(i, j int) {
		splits[i], splits[j] = splits[j], splits[i]
	})
	rngPool.Put(rng)
}
