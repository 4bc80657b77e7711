package experiments

import (
	"sync"
	"sync/atomic"
)

// onCellFailed, when set, is called after a failed cell's index has
// been recorded in runCells' lowest failed index; tests use it to
// observe that moment.
var onCellFailed func(i int)

// runCells executes cells 0..n-1 on a bounded worker pool. Each cell
// must be independent of the others — in this package every cell
// builds its own dynamicmr.Cluster (engine, hardware, DFS,
// JobTracker), so cells share only concurrency-safe state (dsCache,
// MapOutputCache, the scan pool, the locked log sink) and read-only
// values (datasets, compiled policies). Callers write each
// cell's result into a pre-sized slice at index i, which keeps the
// assembled output in deterministic enumeration order: tables and
// CSVs are byte-identical at any parallelism, because virtual time
// inside a cell never observes the pool.
//
// parallelism <= 1 runs the cells sequentially on the calling
// goroutine. On error no cell above the lowest failed index so far is
// started, in-flight cells drain, and the lowest-index error is
// returned: a cell is skipped only when a lower one failed, so the
// lowest failing cell always runs.
func runCells(parallelism, n int, cell func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := cell(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var lowest atomic.Int64 // lowest failed index so far; n while none
	lowest.Store(int64(n))
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if int64(i) > lowest.Load() {
					continue
				}
				if err := cell(i); err != nil {
					errs[i] = err
					for {
						cur := lowest.Load()
						if int64(i) >= cur || lowest.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					if onCellFailed != nil {
						onCellFailed(i)
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
