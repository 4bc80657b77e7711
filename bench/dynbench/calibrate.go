package dynbench

import (
	"slices"
	"time"
)

// calibrator times a fixed task that leans on what the program leans on
// — hash-table probes over a working set larger than the caches,
// sorting, and branchy integer code — but shares none of its code, so
// no change to the program can change it. Run in slices spread over a
// round's loop, it says how fast the machine ran during that loop. It
// allocates nothing after construction, so it cannot disturb the
// program's garbage collector.
type calibrator struct {
	keys  []uint64
	table []uint64 // open addressing, power-of-two size, 0 = empty
}

const (
	calibrationKeys   = 1 << 14
	calibrationTable  = 1 << 19 // 4 MiB of uint64
	calibrationPasses = 12
	// calSlices is how many calibration slices a round runs, evenly
	// spaced by completed jobs, each about 25 ms on the reference
	// machine.
	calSlices = 8
)

func newCalibrator() *calibrator {
	return &calibrator{keys: make([]uint64, calibrationKeys), table: make([]uint64, calibrationTable)}
}

// run performs one slice of the task and returns its host time.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	var hits int
	mask := uint64(len(c.table) - 1)
	for pass := 0; pass < calibrationPasses; pass++ {
		clear(c.table)
		for i := range c.keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v := x | 1
			c.keys[i] = v
			for h := (v * 0x9e3779b97f4a7c15) & mask; ; h = (h + 1) & mask {
				if c.table[h] == 0 {
					c.table[h] = v
					break
				}
			}
		}
		for _, k := range c.keys {
			for h := (k * 0x9e3779b97f4a7c15) & mask; c.table[h] != 0; h = (h + 1) & mask {
				if c.table[h] == k {
					hits++
					break
				}
			}
		}
		slices.Sort(c.keys)
	}
	if hits == 0 {
		panic("dynbench: calibration found nothing") // keeps the work observable
	}
	return time.Since(start)
}
