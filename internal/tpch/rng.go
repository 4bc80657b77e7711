// Package tpch generates TPC-H LINEITEM data deterministically and
// seekably: the i-th row of a given (seed, scale) is a pure function of
// (seed, i), so any sub-range of a multi-hundred-gigabyte dataset can be
// produced on demand without materialising the rest.
package tpch

// mix implements the SplitMix64 finaliser, used as a counter-based PRNG:
// hashing (seed, counter) gives independent, reproducible streams with
// random access — exactly what a seekable data generator needs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream is one row's counter-based random stream, held as its base
// state. Draw k hashes the state plus k times a fixed odd constant, so
// draws are random access: each random choice of a row reads its own
// fixed draw, and a caller computes only the draws it needs.
type stream uint64

// rowStream returns the random stream for row `row` of stream `seed`.
func rowStream(seed, row uint64) stream {
	return stream(mix(seed ^ mix(row+0x51ed2701)))
}

// draw returns draw k of the stream; draws are numbered from 1.
func (s stream) draw(k uint64) uint64 {
	return mix(uint64(s) + k*0x632be59bd9b4e019)
}

// between returns draw k as a uniform integer in [lo, hi] inclusive.
func (s stream) between(k uint64, lo, hi int64) int64 {
	return lo + int64(s.draw(k)%uint64(hi-lo+1))
}

// unit returns draw k as a uniform float in [0, 1).
func (s stream) unit(k uint64) float64 {
	return float64(s.draw(k)>>11) / float64(1<<53)
}

// pick returns the element of list that draw k chooses uniformly.
func pick[T any](s stream, k uint64, list []T) T {
	return list[s.between(k, 0, int64(len(list))-1)]
}
