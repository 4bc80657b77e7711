package main

import (
	"slices"
	"testing"
)

// BenchmarkCalibrate times a fixed task that leans on what the gated
// benchmarks lean on — hash-table probes over a working set larger than
// the L2 cache, sorting, and branchy integer code — but shares none of
// the program's code, so no change to the program can move it. The
// bench gate runs it before and after the gated benchmarks and scales
// every ns/op ceiling by its time over the reference stored with the
// budgets (see calibrationScale). One op is one pass; it allocates
// nothing after set-up.
func BenchmarkCalibrate(b *testing.B) {
	keys := make([]uint64, 1<<13)
	table := make([]uint64, 1<<18) // 2 MiB, open addressing, 0 = empty
	mask := uint64(len(table) - 1)
	x := uint64(88172645463325252)
	pass := func() (hits int) {
		clear(table)
		for k := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v := x | 1
			keys[k] = v
			for h := (v * 0x9e3779b97f4a7c15) & mask; ; h = (h + 1) & mask {
				if table[h] == 0 {
					table[h] = v
					break
				}
			}
		}
		for _, k := range keys {
			for h := (k * 0x9e3779b97f4a7c15) & mask; table[h] != 0; h = (h + 1) & mask {
				if table[h] == k {
					hits++
					break
				}
			}
		}
		slices.Sort(keys)
		return hits
	}
	pass() // fault the table's pages in before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := pass(); hits != len(keys) {
			b.Fatalf("calibration found %d of %d keys", hits, len(keys))
		}
	}
}
