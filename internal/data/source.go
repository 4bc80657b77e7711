package data

// Source supplies the records of one DFS block/partition. Sources are
// usually generator-backed (records are produced deterministically on
// demand rather than materialised), so multi-terabyte datasets cost no
// memory.
type Source interface {
	// Schema of every record the source yields.
	Schema() *Schema
	// NumRecords is the exact number of records in the source.
	NumRecords() int64
	// SizeBytes is the encoded size of the source, used for I/O cost
	// accounting (what HDFS would report as the block length).
	SizeBytes() int64
	// Scan calls yield for each record in order until yield returns
	// false or records are exhausted.
	Scan(yield func(Record) bool)
}

// FilterSource is implemented by sources that can test a predicate
// before building whole records (the dataset package's generated
// partitions). ScanWhere visits the records Scan would, in the same
// order, but hands keep a reused scratch record in which only the
// columns at the schema positions cols are guaranteed to be set; keep
// must neither retain it nor read other columns. Only records keep
// accepts are materialised in full and passed to yield, until yield
// returns false. The first error keep returns stops the scan and is
// returned.
type FilterSource interface {
	ScanWhere(cols []int, keep func(Record) (bool, error), yield func(Record) bool) error
}

// SliceSource is an in-memory Source backed by a slice of records.
type SliceSource struct {
	schema *Schema
	recs   []Record
	bytes  int64
}

// NewSliceSource builds a Source from materialised records.
func NewSliceSource(schema *Schema, recs []Record) *SliceSource {
	var bytes int64
	for _, r := range recs {
		bytes += int64(r.EncodedSize())
	}
	return &SliceSource{schema: schema, recs: recs, bytes: bytes}
}

// Schema implements Source.
func (s *SliceSource) Schema() *Schema { return s.schema }

// NumRecords implements Source.
func (s *SliceSource) NumRecords() int64 { return int64(len(s.recs)) }

// SizeBytes implements Source.
func (s *SliceSource) SizeBytes() int64 { return s.bytes }

// Scan implements Source.
func (s *SliceSource) Scan(yield func(Record) bool) {
	for _, r := range s.recs {
		if !yield(r) {
			return
		}
	}
}

// Records returns the backing slice (not a copy).
func (s *SliceSource) Records() []Record { return s.recs }

// FuncSource adapts a generator function into a Source.
type FuncSource struct {
	Sch   *Schema
	N     int64
	Bytes int64
	Gen   func(yield func(Record) bool)
}

// Schema implements Source.
func (f *FuncSource) Schema() *Schema { return f.Sch }

// NumRecords implements Source.
func (f *FuncSource) NumRecords() int64 { return f.N }

// SizeBytes implements Source.
func (f *FuncSource) SizeBytes() int64 { return f.Bytes }

// Scan implements Source.
func (f *FuncSource) Scan(yield func(Record) bool) { f.Gen(yield) }
