package mapreduce

import (
	"sync"

	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
)

// ResidentStore is the memory engine mode's session-scoped state (the
// M3R idea applied to this runtime): it promotes the per-lookup
// MapOutputCache memo into a store of *partition-stable* map outputs
// that stay resident across the jobs of a session. Each entry keeps one
// split's map output already partitioned for a given reduce count, with
// every partition's run stably sorted by key, so a later job over the
// same (source, MemoKey, numReduces) skips the partition copy at map
// completion and the shuffle-side sort at reduce time — only the
// *newly grabbed* splits of a GROW round pay those costs (the
// delta-shuffle). The store also pins the DFS blocks behind resident
// splits so generator-backed sources keep their materialised match
// records hot for the session.
//
// Determinism contract (same discipline as the MapOutputCache and the
// scan executor): the store changes real wall-clock and allocations
// only. Virtual-time charges — split I/O, map CPU, shuffle bytes, sort
// CPU — are computed from split metadata and chunk byte counts that are
// identical whether a part was resident or rebuilt, so the simulated
// timeline and the query output are byte-identical to baseline mode.
// The reduce-side equivalence is the classic stable-merge identity:
// a stable key sort of chunks concatenated in completion order equals
// the k-way merge of the per-chunk stably-sorted runs with ties broken
// by chunk position (see mergeSortedChunks), and equals the plain
// concatenation of those runs when their key ranges do not overlap
// (see reduceGroups).
//
// Resident parts are immutable once admitted and may be shared by any
// number of in-flight jobs (and by JobTrackers sharing the store, as a
// sweep's cells do); sharing is refcounted so the bounded-memory
// eviction policy never reclaims a part a live job still references.
// Eviction drops the store's reference only — jobs holding the part
// keep it alive, and a future job simply rebuilds it — so capping
// resident bytes trades wall-clock, never correctness.
//
// The store is safe for concurrent use by JobTrackers on separate
// goroutines.
type ResidentStore struct {
	mu    sync.Mutex
	memo  *MapOutputCache
	parts map[residentKey]*residentPart
	// pins counts resident parts per DFS block; a block is pinned while
	// any part over it is resident and unpinned when the last is evicted
	// or purged.
	pins map[*dfs.Block]int
	// clock is a logical LRU tick bumped on every touch.
	clock uint64
	// residentBytes is the encoded size of all parts currently in the
	// map (the same byte metric the shuffle charges, so it is
	// deterministic and pinnable by golden tables).
	residentBytes int64
	pinnedBytes   int64
	// maxBytes bounds residentBytes; 0 means unbounded. Parts still
	// referenced by live jobs are never evicted (their memory could not
	// be reclaimed anyway), so the bound may be transiently exceeded by
	// the in-flight working set.
	maxBytes int64
	// sessions is the retain count; Release at zero purges everything.
	sessions int
	// liveRefs is the sum of per-part refcounts, for leak tests.
	liveRefs int

	hits, misses, stores, evictions uint64
}

// residentKey identifies one split's partitioned output layout.
type residentKey struct {
	src     data.Source
	job     string // JobSpec.MemoKey
	reduces int
}

// residentChunk is one reduce partition's stably-sorted run of a
// resident part.
type residentChunk struct {
	pairs []KeyValue
	bytes int64
}

// residentPart is one split's map output, partitioned by reduce count
// with each partition's pairs stably sorted by key. It also carries the
// per-split counter contributions a map completion reports, so a hit
// needs neither the collector nor a rescan.
type residentPart struct {
	key     residentKey
	block   *dfs.Block
	chunks  []residentChunk
	records int64 // map output records (Collector.Len())
	bytes   int64 // encoded map output bytes (Collector.Bytes())
	user    map[string]int64

	refs     int
	lastUse  uint64
	resident bool // still in the store's map
}

// ResidentStats snapshots the store for observability and tests.
type ResidentStats struct {
	Hits, Misses, Stores, Evictions uint64
	Parts                           int
	ResidentBytes                   int64
	PinnedBytes                     int64
	PinnedBlocks                    int
	LiveRefs                        int
	Sessions                        int
}

// NewResidentStore returns an empty store wrapping the given memo cache
// (one is created when nil) with residentBytes bounded by maxBytes
// (0 = unbounded).
func NewResidentStore(memo *MapOutputCache, maxBytes int64) *ResidentStore {
	if memo == nil {
		memo = NewMapOutputCache()
	}
	return &ResidentStore{
		memo:     memo,
		parts:    make(map[residentKey]*residentPart),
		pins:     make(map[*dfs.Block]int),
		maxBytes: maxBytes,
	}
}

// Memo returns the raw-collector memo cache behind the store; runtimes
// configured with the store use it as their MapOutputCache so the scan
// executor's singleflight and the resident parts share one purity
// domain.
func (rs *ResidentStore) Memo() *MapOutputCache { return rs.memo }

// Retain registers a session using the store.
func (rs *ResidentStore) Retain() {
	rs.mu.Lock()
	rs.sessions++
	rs.mu.Unlock()
}

// Release drops one session's claim; when the last session detaches the
// store purges every resident part and unpins every block. Idempotent
// beyond zero.
func (rs *ResidentStore) Release() {
	rs.mu.Lock()
	if rs.sessions > 0 {
		rs.sessions--
	}
	last := rs.sessions == 0
	rs.mu.Unlock()
	if last {
		rs.Purge()
	}
}

// Purge drops every resident part and unpins every block. In-flight
// jobs holding parts keep them alive through their own references.
func (rs *ResidentStore) Purge() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for k, p := range rs.parts {
		p.resident = false
		delete(rs.parts, k)
	}
	rs.residentBytes = 0
	for b := range rs.pins {
		rs.unpinBlockLocked(b)
	}
}

// Stats returns a snapshot of the store's counters and levels.
func (rs *ResidentStore) Stats() ResidentStats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return ResidentStats{
		Hits: rs.hits, Misses: rs.misses, Stores: rs.stores, Evictions: rs.evictions,
		Parts:         len(rs.parts),
		ResidentBytes: rs.residentBytes,
		PinnedBytes:   rs.pinnedBytes,
		PinnedBlocks:  len(rs.pins),
		LiveRefs:      rs.liveRefs,
		Sessions:      rs.sessions,
	}
}

// ResidentBytes returns the encoded size of all resident parts.
func (rs *ResidentStore) ResidentBytes() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.residentBytes
}

// Len returns the number of resident parts.
func (rs *ResidentStore) Len() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.parts)
}

// acquire looks up the resident part for a completing map task and, on
// a hit, takes a job reference on it. The caller must pair a successful
// acquire with a release (releaseParts).
func (rs *ResidentStore) acquire(src data.Source, job string, reduces int) *residentPart {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	p, ok := rs.parts[residentKey{src, job, reduces}]
	if !ok {
		rs.misses++
		return nil
	}
	rs.hits++
	rs.clock++
	p.lastUse = rs.clock
	p.refs++
	rs.liveRefs++
	return p
}

// admit inserts a freshly built part, taking a job reference on the
// returned part, and reports how many parts the bounded-memory policy
// evicted to make room. When a concurrent runtime admitted an identical
// part first, the existing one wins (its content is byte-identical by
// the purity contract) and the candidate is discarded.
func (rs *ResidentStore) admit(p *residentPart) (*residentPart, int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if prev, ok := rs.parts[p.key]; ok {
		rs.clock++
		prev.lastUse = rs.clock
		prev.refs++
		rs.liveRefs++
		return prev, 0
	}
	rs.clock++
	p.lastUse = rs.clock
	p.refs = 1
	p.resident = true
	rs.parts[p.key] = p
	rs.residentBytes += p.bytes
	rs.liveRefs++
	rs.stores++
	if p.block != nil {
		if rs.pins[p.block] == 0 {
			p.block.Pin()
			rs.pinnedBytes += p.block.SizeBytes()
		}
		rs.pins[p.block]++
	}
	return p, rs.evictLocked()
}

// releaseParts drops a job's references; parts stay resident for the
// session (that is the point) — only eviction or purge reclaims them.
func (rs *ResidentStore) releaseParts(parts []*residentPart) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, p := range parts {
		if p.refs > 0 {
			p.refs--
			rs.liveRefs--
		}
	}
}

// touch bumps the LRU standing of every resident part over the given
// sources — the Input Provider's residency hint that a session's round
// loop is still growing over them.
func (rs *ResidentStore) touch(srcs []data.Source) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	hot := make(map[data.Source]struct{}, len(srcs))
	for _, s := range srcs {
		hot[s] = struct{}{}
	}
	rs.clock++
	for k, p := range rs.parts {
		if _, ok := hot[k.src]; ok {
			p.lastUse = rs.clock
		}
	}
}

// evictLocked reclaims least-recently-used unreferenced parts until
// residentBytes fits maxBytes, returning the eviction count. Caller
// holds rs.mu.
func (rs *ResidentStore) evictLocked() (evicted int) {
	if rs.maxBytes <= 0 {
		return 0
	}
	for rs.residentBytes > rs.maxBytes {
		var victim *residentPart
		for _, p := range rs.parts {
			if p.refs > 0 {
				continue
			}
			if victim == nil || p.lastUse < victim.lastUse {
				victim = p
			}
		}
		if victim == nil {
			return evicted // everything left is referenced by live jobs
		}
		victim.resident = false
		delete(rs.parts, victim.key)
		rs.residentBytes -= victim.bytes
		rs.evictions++
		evicted++
		if b := victim.block; b != nil {
			rs.pins[b]--
			if rs.pins[b] == 0 {
				rs.unpinBlockLocked(b)
			}
		}
	}
	return evicted
}

// unpinBlockLocked unpins a block and drops its accounting entry.
// Caller holds rs.mu.
func (rs *ResidentStore) unpinBlockLocked(b *dfs.Block) {
	rs.pinnedBytes -= b.SizeBytes()
	delete(rs.pins, b)
	b.Unpin()
}

// newResidentPart partitions a completed map task's output for the
// job's reduce count and stably sorts each partition's run, taking
// ownership of the byPart chunk arrays the caller built (the caller
// appends the same — now sorted — arrays to its own shuffle state, so
// the job and the store share one copy).
func newResidentPart(key residentKey, block *dfs.Block, byPart []mapChunk, out *Collector) *residentPart {
	p := &residentPart{
		key:     key,
		block:   block,
		chunks:  make([]residentChunk, len(byPart)),
		records: int64(out.Len()),
		bytes:   out.Bytes(),
	}
	for i := range byPart {
		sortPairsStable(byPart[i].pairs)
		p.chunks[i] = residentChunk{pairs: byPart[i].pairs, bytes: byPart[i].bytes}
	}
	if uc := out.UserCounters(); len(uc) > 0 {
		p.user = make(map[string]int64, len(uc))
		for k, v := range uc {
			p.user[k] = v
		}
	}
	return p
}

// mergeSortedChunks merges one partition's key-sorted chunk runs, total
// pairs in all, into a single key-sorted slice with exact
// preallocation: a k-way merge on a binary min-heap of chunk heads,
// O(n log k). Ties across chunks resolve to the lower chunk position,
// which together with the per-run order reproduces exactly what
// sortPairs (stable sort of the concatenation in chunk order) would
// produce — without the O(n log n) sort on the reduce hot path. Chunks
// whose key ranges are already in order need no merge at all;
// reduceGroups walks them in place.
func mergeSortedChunks(chunks []mapChunk, total int) []KeyValue {
	pairs := make([]KeyValue, 0, total)
	type head struct {
		chunk int
		idx   int
	}
	heap := make([]head, 0, len(chunks))
	less := func(a, b head) bool {
		ka, kb := chunks[a.chunk].pairs[a.idx].Key, chunks[b.chunk].pairs[b.idx].Key
		if ka != kb {
			return ka < kb
		}
		return a.chunk < b.chunk
	}
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(heap) {
				return
			}
			if r := l + 1; r < len(heap) && less(heap[r], heap[l]) {
				l = r
			}
			if !less(heap[l], heap[i]) {
				return
			}
			heap[i], heap[l] = heap[l], heap[i]
			i = l
		}
	}
	for c := range chunks {
		if len(chunks[c].pairs) > 0 {
			heap = append(heap, head{chunk: c})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(heap) > 0 && len(pairs) < total {
		top := heap[0]
		run := chunks[top.chunk].pairs
		// Gallop: drain the winning chunk while its next key still beats
		// every other head (only the runner-up matters in a binary heap).
		stop := len(run)
		if len(heap) > 1 {
			next := heap[1]
			if len(heap) > 2 && less(heap[2], next) {
				next = heap[2]
			}
			nk := chunks[next.chunk].pairs[next.idx].Key
			for i := top.idx; i < stop; i++ {
				k := run[i].Key
				if k > nk || (k == nk && top.chunk > next.chunk) {
					stop = i
					break
				}
			}
		}
		pairs = append(pairs, run[top.idx:stop]...)
		if stop < len(run) {
			heap[0].idx = stop
			siftDown(0)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			if len(heap) > 0 {
				siftDown(0)
			}
		}
	}
	return pairs
}
