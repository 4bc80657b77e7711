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
// order, and yields those pred accepts, until yield returns false. It
// tests a source's natural rows in batches of at most BatchRows
// consecutive rows through pred.TestBatch, and any other row (a row
// whose values a batch would not hold, such as a planted match, whose
// predicate column the source overwrites) through pred.TestRow on the
// whole record. The first error in row order stops the scan and is
// returned, after every match before it was yielded.
//
// With a nil proj each yielded record is the whole record Scan yields
// at that position. Otherwise it equals that record's Project(proj),
// and only the projected columns need be built. Either way every
// yielded record owns a fresh values slice, so yield may keep it.
type FilterSource interface {
	ScanWhere(pred Filter, proj *Schema, yield func(Record) bool) error
}

// BatchRows is the most rows a Batch holds.
const BatchRows = 256

// Filter is a predicate compiled against a FilterSource's schema. Its
// two tests agree: the batch test accepts a row, or fails on it with
// an error, exactly when the row test does on the row's whole record.
type Filter interface {
	// TestRow tests a whole record of the schema.
	TestRow(Record) (bool, error)
	// TestBatch tests the batch rows that sel lists in ascending
	// order. It moves the rows it accepts to the front of sel, in
	// order, and returns how many there are. When a row's test fails,
	// err is the error of the first such row, at is that row, and the
	// accepted rows returned are those before it.
	TestBatch(b Batch, sel []int32) (n int, at int32, err error)
}

// Batch is a run of up to BatchRows consecutive rows of a FilterSource,
// which a Filter reads column by column: batch row k is the run's k-th
// row. Ints and Floats read a column the schema declares INT or FLOAT.
// Each computes the column for the rows sel lists, ascending, and
// returns a vector indexed by batch row whose other entries are stale.
// The vector is valid until the batch's next call.
type Batch interface {
	Ints(col int, sel []int32) []int64
	Floats(col int, sel []int32) []float64
	// Fill writes the columns cols of batch row k into vals, at their
	// schema positions, as Values; it serves columns of any kind.
	Fill(k int32, cols []int, vals []Value)
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
