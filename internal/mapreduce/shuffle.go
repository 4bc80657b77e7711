package mapreduce

import (
	"slices"
	"strings"
	"sync"
)

// seqPair tags a KeyValue with its input position so a non-stable sort
// can break key ties on it, reproducing stable order.
type seqPair struct {
	kv  KeyValue
	seq int32
}

// seqScratch recycles the tag buffers sortPairsStable uses across
// shuffle/combine sorts, keeping the hot path allocation-free once
// warm.
var seqScratch = sync.Pool{New: func() any { return new([]seqPair) }}

// sortPairsStable sorts pairs by key in place, preserving the existing
// order of equal keys. It replaces sort.SliceStable — whose
// reflection-based swap dominated the shuffle profile — with
// slices.SortFunc over an explicit (key, input-sequence) ordering,
// which is equivalent to a stable key sort.
func sortPairsStable(pairs []KeyValue) {
	if len(pairs) < 2 {
		return
	}
	bufp := seqScratch.Get().(*[]seqPair)
	buf := *bufp
	if cap(buf) < len(pairs) {
		buf = make([]seqPair, len(pairs))
	}
	buf = buf[:len(pairs)]
	for i, kv := range pairs {
		buf[i] = seqPair{kv: kv, seq: int32(i)}
	}
	slices.SortFunc(buf, func(a, b seqPair) int {
		if c := strings.Compare(a.kv.Key, b.kv.Key); c != 0 {
			return c
		}
		return int(a.seq - b.seq)
	})
	for i := range buf {
		pairs[i] = buf[i].kv
	}
	clear(buf) // drop record references so recycling doesn't pin them
	*bufp = buf[:0]
	seqScratch.Put(bufp)
}

// collectorPool recycles the map side's Collector backing arrays
// across task attempts: a map attempt's or combiner's collector whose
// pairs are copied out (into shuffle chunks, or into the combined
// collector) before the attempt finishes is reusable. Collectors that
// escape — memoised in a MapOutputCache or shared through a scan
// future — are never recycled; see the recycleCollector call sites.
// Reduce outputs do not come from here: each is built in an array the
// JobTracker kept from a retired job's output (see JobTracker.Retire).
var collectorPool = sync.Pool{New: func() any { return new(Collector) }}

// newCollector returns an empty collector, reusing a recycled backing
// array when one is available.
func newCollector() *Collector { return collectorPool.Get().(*Collector) }

// recycleCollector resets c and returns it to the pool. Callers must
// only recycle collectors they exclusively own — never one stored in a
// cache or still referenced elsewhere.
func recycleCollector(c *Collector) {
	if c == nil {
		return
	}
	clear(c.pairs) // release record references before reuse
	c.pairs = c.pairs[:0]
	c.bytes = 0
	c.counters = nil
	c.unsorted = false
	collectorPool.Put(c)
}
