package mapreduce

import (
	"sync"

	"dynamicmr/internal/data"
)

// MapOutputCache memoises map-task outputs across jobs, keyed by the
// identity of the split's record source plus the job's MemoKey. The
// experiment harness shares one cache across a sweep's cells: within a
// sweep the scheduling policies change *when* each split is mapped,
// never *what* mapping it produces, so the first job to map a split
// computes the output and every later job — on any JobTracker sharing
// the cache — reuses it.
//
// Simulated cost accounting is untouched by memoization: the runtime
// charges I/O and CPU from split metadata before execMapper runs, so a
// cache hit changes real wall-clock only, never virtual time or
// results.
//
// Cached Collectors are shared and must be treated as immutable; the
// runtime only reads them (see JobSpec.MemoKey for the purity
// contract a job accepts by setting a key). Sources used as keys must
// have comparable dynamic types (every source in this repository is a
// pointer).
//
// The cache is safe for concurrent use by JobTrackers on separate
// goroutines.
type MapOutputCache struct {
	mu     sync.Mutex
	m      map[memoKey]*Collector
	hits   uint64
	misses uint64
}

type memoKey struct {
	src data.Source
	job string
}

// NewMapOutputCache returns an empty cache.
func NewMapOutputCache() *MapOutputCache {
	return &MapOutputCache{m: make(map[memoKey]*Collector)}
}

func (c *MapOutputCache) lookup(src data.Source, job string) (*Collector, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.m[memoKey{src, job}]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return out, ok
}

func (c *MapOutputCache) store(src data.Source, job string, out *Collector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[memoKey{src, job}] = out
}

// Stats returns the lookup hit/miss counts so far.
func (c *MapOutputCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
