package mapreduce

import (
	"math"
	"slices"

	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
)

// KeyValue is an intermediate or output pair. Keys are strings (the
// paper's sampling job uses a single dummy key); values are records.
type KeyValue struct {
	Key   string
	Value data.Record
}

// Collector accumulates the pairs emitted by a map or reduce function,
// plus any user-defined counters the function increments (Hadoop's
// custom counters; the Input Provider consumes the built-in ones, and
// user code may report additional statistics the same way).
type Collector struct {
	pairs []KeyValue
	bytes int64
	// marks are Emit's checkpoints of bytes: marks[i] is the size of the
	// first (i+1)·markEvery pairs. A reduce sizes the kept prefix of a
	// map output from them (mapChunk.prefixBytes), so they hold only for
	// a collector every pair of which came through Emit.
	marks    []int64
	counters map[string]int64
	// unsorted is set once an emitted key is less than its predecessor;
	// map completion hands the hint on to the shuffle chunks.
	unsorted bool
}

// markEvery is how many emitted pairs a Collector checkpoint covers.
const markEvery = 64

// Inc adds delta to the named user counter.
func (c *Collector) Inc(name string, delta int64) {
	if c.counters == nil {
		c.counters = make(map[string]int64)
	}
	c.counters[name] += delta
}

// UserCounters returns the counters incremented so far (nil if none).
func (c *Collector) UserCounters() map[string]int64 { return c.counters }

// Emit outputs one pair.
func (c *Collector) Emit(key string, value data.Record) {
	if n := len(c.pairs); n > 0 && key < c.pairs[n-1].Key {
		c.unsorted = true
	}
	c.pairs = append(c.pairs, KeyValue{Key: key, Value: value})
	c.bytes += int64(len(key) + value.EncodedSize())
	if len(c.pairs)%markEvery == 0 {
		c.marks = append(c.marks, c.bytes)
	}
}

// Grow ensures room for n more pairs without reallocating, so a reduce
// function that knows its output size sizes the array once.
func (c *Collector) Grow(n int) { c.pairs = slices.Grow(c.pairs, n) }

// Pairs returns everything emitted so far.
func (c *Collector) Pairs() []KeyValue { return c.pairs }

// Len returns the number of emitted pairs.
func (c *Collector) Len() int { return len(c.pairs) }

// Bytes returns the encoded size of the emitted pairs.
func (c *Collector) Bytes() int64 { return c.bytes }

// TaskContext gives user code access to its configuration and split.
type TaskContext struct {
	// Conf is the job configuration.
	Conf *JobConf
	// SplitIndex is the ordinal of the split among the job's scheduled
	// splits (map tasks only; -1 for reduce).
	SplitIndex int
	// Source is the split's record source (map tasks only).
	Source data.Source
}

// Mapper is the user-defined map function, invoked once per input
// record: map(k1, v1) -> list(k2, v2).
type Mapper interface {
	// Map processes one record, emitting zero or more pairs.
	Map(rec data.Record, out *Collector) error
}

// SetupMapper is an optional extension: Setup runs before the first
// record, Cleanup after the last.
type SetupMapper interface {
	Mapper
	Setup(ctx *TaskContext) error
	Cleanup(out *Collector) error
}

// SplitMapper is an optional extension that takes control of scanning
// the whole split instead of being fed record-at-a-time. A mapper that
// can exploit structure in the split's Source (e.g. the dataset
// package's accelerated match path) implements this; the runtime
// charges the split's I/O and CPU either way — the whole split under
// the full input path, only the match-admitting sub-blocks under skip
// or index (see inputpath.go).
type SplitMapper interface {
	Mapper
	MapSplit(ctx *TaskContext, out *Collector) error
}

// Reducer is the user-defined reduce function:
// reduce(k2, list(v2)) -> list(k3, v3).
type Reducer interface {
	// Reduce processes one key and all its values.
	Reduce(key string, values []data.Record, out *Collector) error
}

// PrefixReducer is an optional extension through which a reducer
// declares that its output for each key group is the group's first
// limit values, unchanged, in reduce-input order, each emitted under
// the group's key. When PrefixLimit reports ok, the runtime copies
// those pairs straight from the shuffled runs to the output and never
// calls Reduce, so a prefix reducer must set no user counters; Reduce
// stays for direct callers and must produce the same output. A reducer
// that reports !ok takes the ordinary values path.
type PrefixReducer interface {
	Reducer
	PrefixLimit() (limit int64, ok bool)
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(rec data.Record, out *Collector) error

// Map implements Mapper.
func (f MapperFunc) Map(rec data.Record, out *Collector) error { return f(rec, out) }

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(key string, values []data.Record, out *Collector) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values []data.Record, out *Collector) error {
	return f(key, values, out)
}

// IdentityReducer passes every (key, value) through unchanged. It is a
// PrefixReducer with no limit.
var IdentityReducer Reducer = identityReducer{}

type identityReducer struct{}

// Reduce implements Reducer.
func (identityReducer) Reduce(key string, values []data.Record, out *Collector) error {
	out.Grow(len(values))
	for _, v := range values {
		out.Emit(key, v)
	}
	return nil
}

// PrefixLimit implements PrefixReducer: every value is kept.
func (identityReducer) PrefixLimit() (int64, bool) { return math.MaxInt64, true }

// Split is one unit of map input: a DFS block.
type Split struct {
	Block *dfs.Block
}

// SizeBytes returns the split length.
func (s Split) SizeBytes() int64 { return s.Block.SizeBytes() }

// NumRecords returns the split's record count.
func (s Split) NumRecords() int64 { return s.Block.NumRecords() }

// SplitsForFile wraps every block of a DFS file as a Split.
func SplitsForFile(f *dfs.File) []Split {
	out := make([]Split, len(f.Blocks))
	for i, b := range f.Blocks {
		out[i] = Split{Block: b}
	}
	return out
}

// JobSpec describes a job: configuration plus factories for the user
// logic. Factories are called once per task attempt, so a mapper may
// keep per-task state (as Hadoop's do).
type JobSpec struct {
	// Conf is the job configuration; nil means an empty conf.
	Conf *JobConf
	// NewMapper builds the map logic for one task attempt.
	NewMapper func(conf *JobConf) Mapper
	// NewCombiner, when set, builds a combiner applied to each map
	// task's output before the shuffle (Hadoop's combiner): pairs are
	// grouped by key and fed through it, shrinking shuffle volume for
	// aggregation jobs.
	NewCombiner func(conf *JobConf) Reducer
	// NewReducer builds the reduce logic for one task attempt; nil
	// means IdentityReducer.
	NewReducer func(conf *JobConf) Reducer
	// OnComplete, if set, fires when the job finishes (in virtual time).
	OnComplete func(j *Job)
	// MemoKey, when non-empty, declares the map computation pure: the
	// output of mapping a split is a function of the split's source and
	// this key alone — never of the task index, attempt number,
	// scheduling order, or mutable state. A runtime configured with a
	// MapOutputCache may then reuse one task's output for any other
	// task (in any job, on any tracker sharing the cache) whose
	// (source, MemoKey) pair matches. Cached Collectors are shared, so
	// jobs that set a MemoKey must not mutate map output downstream.
	MemoKey string
	// FilterFingerprint, when non-empty, declares the map output a
	// function of only the input records matching the fingerprinted
	// predicate (a data.StatSource fingerprint): records the predicate
	// rejects never influence the output. A runtime running a skip or
	// index input path may then read only the statistics sub-blocks
	// that can hold matches, charging I/O for just those — see
	// inputpath.go. Full mode ignores the declaration entirely.
	FilterFingerprint string
}
