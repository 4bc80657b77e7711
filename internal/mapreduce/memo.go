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
// The cache holds one table per memo key. A job resolves its table once
// at Submit, so a map's lookup hashes the split's source pointer, not
// the key string.
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
	tables map[string]*memoTable
	hits   uint64
	misses uint64
}

// memoTable is one memo key's cached outputs by split source. Its map
// is guarded by the owning cache's mutex.
type memoTable struct {
	c *MapOutputCache
	m map[data.Source]*Collector
}

// NewMapOutputCache returns an empty cache.
func NewMapOutputCache() *MapOutputCache {
	return &MapOutputCache{tables: make(map[string]*memoTable)}
}

// table returns key's table, creating it empty on first use.
func (c *MapOutputCache) table(key string) *memoTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tables[key]
	if t == nil {
		t = &memoTable{c: c, m: make(map[data.Source]*Collector)}
		c.tables[key] = t
	}
	return t
}

func (t *memoTable) lookup(src data.Source) (*Collector, bool) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	out, ok := t.m[src]
	if ok {
		t.c.hits++
	} else {
		t.c.misses++
	}
	return out, ok
}

func (t *memoTable) store(src data.Source, out *Collector) {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	t.m[src] = out
}

// Stats returns the lookup hit/miss counts so far.
func (c *MapOutputCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
