package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"dynamicmr/internal/data"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/skew"
	"dynamicmr/internal/tpch"
)

// DefaultSelectivity is the paper's fixed predicate selectivity (0.05%).
const DefaultSelectivity = 0.0005

// PartitionsPerScale reproduces Table II's geometry: a 5x dataset splits
// into 40 partitions, i.e. 8 partitions per unit of scale, one per disk
// at 5x on the 40-disk cluster.
const PartitionsPerScale = 8

// Spec describes a dataset to build.
type Spec struct {
	// Name of the DFS file / Hive table the dataset backs.
	Name string
	// Scale is the TPC-H scale factor (paper: 5, 10, 20, 40, 100).
	Scale int
	// Seed makes the dataset (rows, planting, jitter) deterministic.
	Seed int64
	// Z is the Zipf exponent for match placement (0, 1 or 2).
	Z float64
	// Selectivity of the planted predicate; 0 means DefaultSelectivity.
	Selectivity float64
	// Partitions overrides the partition count; 0 means
	// Scale*PartitionsPerScale. Build rejects a negative value.
	Partitions int
	// RowsOverride, when positive, replaces Scale*tpch.RowsPerScale as
	// the total row count. Tests use it to build small datasets that can
	// be fully scanned; production specs leave it zero. Build rejects a
	// negative value.
	RowsOverride int64
}

// Dataset is a partitioned LINEITEM table with planted matches for one
// known predicate.
type Dataset struct {
	spec       Spec
	level      SkewLevel
	partitions []*Partition
	totalRows  int64
	matches    int64
	fp         string // predicate fingerprint
}

// Partition is one input partition (one DFS block's worth of rows). It
// implements data.Source; records are generated on demand.
type Partition struct {
	ds       *Dataset
	index    int
	startRow int64 // global row id of first row
	numRows  int64
	// matchPos holds the sorted in-partition offsets of planted rows.
	matchPos []int64
	bytes    int64
	// zones is the load-time zone map (StatBlockRows-row sub-blocks with
	// min/max + exact match counts); stats is its aggregate summary.
	zones []ZoneEntry
	stats data.BlockStats
}

// Build constructs the dataset: partition sizes (with ±2% deterministic
// jitter, since real HDFS splits "may vary in the number of records"
// per §IV), Zipfian match counts per rank, a random rank→partition
// permutation, and sorted planted positions within each partition.
func Build(spec Spec) (*Dataset, error) {
	if spec.Scale <= 0 {
		return nil, fmt.Errorf("dataset: scale must be positive, got %d", spec.Scale)
	}
	if spec.RowsOverride < 0 {
		// Not "no override": a negative count is a caller's mistake,
		// and loading the full table for it would hide that.
		return nil, fmt.Errorf("dataset: row override must not be negative, got %d", spec.RowsOverride)
	}
	level, err := LevelForZ(spec.Z)
	if err != nil {
		return nil, err
	}
	if spec.Selectivity == 0 {
		spec.Selectivity = DefaultSelectivity
	}
	if math.IsNaN(spec.Selectivity) || spec.Selectivity < 0 || spec.Selectivity > 1 {
		return nil, fmt.Errorf("dataset: selectivity %v out of [0,1]", spec.Selectivity)
	}
	if spec.Partitions < 0 {
		return nil, fmt.Errorf("dataset: partition count must not be negative, got %d", spec.Partitions)
	}
	if spec.Partitions == 0 {
		spec.Partitions = spec.Scale * PartitionsPerScale
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("lineitem_%dx_z%g", spec.Scale, spec.Z)
	}
	n := spec.Partitions
	totalRows := int64(spec.Scale) * tpch.RowsPerScale
	if spec.RowsOverride > 0 {
		totalRows = spec.RowsOverride
	}
	totalMatches := int64(float64(totalRows)*spec.Selectivity + 0.5)

	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))

	// Partition row counts: base ± up to 2% jitter, corrected to sum to
	// totalRows.
	base := totalRows / int64(n)
	rows := make([]int64, n)
	var sum int64
	for i := range rows {
		jitter := int64(float64(base) * 0.02 * (2*rng.Float64() - 1))
		rows[i] = base + jitter
		sum += rows[i]
	}
	rows[n-1] += totalRows - sum
	if rows[n-1] <= 0 {
		return nil, fmt.Errorf("dataset: partition geometry underflow (scale too small for %d partitions)", n)
	}

	// Matches per rank, then ranks shuffled onto partitions so the "hot"
	// partition sits at a random index.
	countsByRank := skew.Counts(totalMatches, spec.Z, n, spec.Seed^0x2f)
	perm := rng.Perm(n)
	matchCount := make([]int64, n)
	for rank, c := range countsByRank {
		matchCount[perm[rank]] = c
	}

	ds := &Dataset{spec: spec, level: level, totalRows: totalRows, matches: totalMatches,
		fp: level.Predicate.String()}

	var start int64
	for i := 0; i < n; i++ {
		m := matchCount[i]
		if m > rows[i] {
			// More matches drawn to this partition than it has rows
			// (only possible at tiny scales under extreme skew): clamp
			// and spill the excess to the following partition.
			if i+1 < n {
				matchCount[i+1] += m - rows[i]
			}
			m = rows[i]
		}
		p := &Partition{ds: ds, index: i, startRow: start, numRows: rows[i]}
		p.matchPos = samplePositions(rng, rows[i], m)
		p.bytes = rows[i] * tpch.AvgRowBytes
		p.buildZones()
		ds.partitions = append(ds.partitions, p)
		start += rows[i]
	}
	// Recount after any clamping.
	var planted int64
	for _, p := range ds.partitions {
		planted += int64(len(p.matchPos))
	}
	ds.matches = planted
	return ds, nil
}

// samplePositions picks m distinct offsets in [0, n) uniformly, sorted.
func samplePositions(rng *rand.Rand, n, m int64) []int64 {
	if m <= 0 {
		return nil
	}
	if m > n {
		panic("dataset: more positions than rows")
	}
	seen := make(map[int64]struct{}, m)
	pos := make([]int64, 0, m)
	for int64(len(pos)) < m {
		v := rng.Int63n(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		pos = append(pos, v)
	}
	sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
	return pos
}

// Name returns the dataset/table name.
func (d *Dataset) Name() string { return d.spec.Name }

// Schema returns the LINEITEM schema.
func (d *Dataset) Schema() *data.Schema { return tpch.LineItemSchema }

// Predicate returns the planted predicate (the Table III predicate for
// the dataset's skew level).
func (d *Dataset) Predicate() expr.Expr { return d.level.Predicate }

// PredicateFingerprint returns Predicate().String(), the key the
// accelerated match path is indexed by.
func (d *Dataset) PredicateFingerprint() string { return d.fp }

// NumPartitions returns the partition count.
func (d *Dataset) NumPartitions() int { return len(d.partitions) }

// Partition returns partition i.
func (d *Dataset) Partition(i int) *Partition { return d.partitions[i] }

// Partitions returns all partitions in order.
func (d *Dataset) Partitions() []*Partition { return d.partitions }

// TotalRows returns the dataset cardinality.
func (d *Dataset) TotalRows() int64 { return d.totalRows }

// TotalMatches returns the number of planted matching records.
func (d *Dataset) TotalMatches() int64 { return d.matches }

// TotalBytes returns the dataset's encoded size estimate.
func (d *Dataset) TotalBytes() int64 {
	var b int64
	for _, p := range d.partitions {
		b += p.bytes
	}
	return b
}

// MatchDistribution returns planted matches per partition index.
func (d *Dataset) MatchDistribution() []int64 {
	out := make([]int64, len(d.partitions))
	for i, p := range d.partitions {
		out[i] = int64(len(p.matchPos))
	}
	return out
}

// generator returns the row generator for this dataset.
func (d *Dataset) generator() *tpch.Generator {
	return tpch.NewGenerator(uint64(d.spec.Seed), d.spec.Scale)
}

// Index returns the partition's position within the dataset.
func (p *Partition) Index() int { return p.index }

// Schema implements data.Source.
func (p *Partition) Schema() *data.Schema { return tpch.LineItemSchema }

// NumRecords implements data.Source.
func (p *Partition) NumRecords() int64 { return p.numRows }

// SizeBytes implements data.Source.
func (p *Partition) SizeBytes() int64 { return p.bytes }

// NumMatches returns the number of planted matching rows.
func (p *Partition) NumMatches() int64 { return int64(len(p.matchPos)) }

// row materialises the partition's i-th record, with its match planted
// if position i carries one.
func (p *Partition) row(gen *tpch.Generator, i int64, planted bool) data.Record {
	vals := make([]data.Value, tpch.LineItemSchema.Len())
	p.fill(gen, i, tpch.AllColumns, planted, vals)
	return data.NewRecord(tpch.LineItemSchema, vals)
}

// fill writes the columns need selects of the partition's row i into
// vals, at their schema positions, as Generator.Fill does. A planted
// row's predicate column takes its plant draw instead of the
// generator's value.
func (p *Partition) fill(gen *tpch.Generator, i int64, need uint32, planted bool, vals []data.Value) {
	lvl := &p.ds.level
	if planted && need&(1<<lvl.statCol) != 0 {
		need &^= 1 << lvl.statCol
		vals[lvl.statCol] = lvl.plant(plantRNG{state: uint64(p.startRow+i) ^ uint64(p.ds.spec.Seed)*0x9e3779b9})
	}
	gen.Fill(p.startRow+i, need, vals)
}

// Scan implements data.Source: every record in order, matches planted
// in place.
func (p *Partition) Scan(yield func(data.Record) bool) {
	_ = p.scan(everyRow{}, nil, yield, wholePartition)
}

// ScanWhere implements data.FilterSource over the whole partition.
func (p *Partition) ScanWhere(pred data.Filter, proj *data.Schema, yield func(data.Record) bool) error {
	return p.scan(pred, proj, yield, wholePartition)
}

// everyRow is the data.Filter of a plain Scan: it accepts every row.
type everyRow struct{}

func (everyRow) TestRow(data.Record) (bool, error) { return true, nil }

func (everyRow) TestBatch(_ data.Batch, sel []int32) (int, int32, error) { return len(sel), 0, nil }

// coverage is the set of rows a scan visits.
type coverage uint8

const (
	wholePartition coverage = iota
	matchZones              // the skip view: every zone holding a planted row
	plantedRows             // the clustered-index view
)

// rowScan is one pass of the partition's row loop, shared by Scan,
// ScanWhere and both pruned views. It tests the natural rows of each
// zone in batches of up to data.BatchRows rows: it is the data.Batch
// that pred reads, and computes a column only for the rows pred still
// has selected. A natural row pred accepts then gets only its projected
// columns filled and copied out by position, or is built in full when
// there is no projection or the projection was not made from the
// partition's schema. A planted row is always built in full, its
// predicate column planted in place, and tested with pred's row test,
// since the batch's columns hold only generated values; it is
// projected only after, and the batch loop merges planted rows
// and natural matches in row order. Every row is still generated from
// the same counter-based stream, so the yielded records equal a plain
// scan's, filtered and projected. rowScans are pooled, so a split's
// scan allocates only the records it yields.
type rowScan struct {
	p     *Partition
	gen   *tpch.Generator
	pred  data.Filter
	proj  *data.Schema // nil: yield whole rows
	pos   []int        // proj's positions in the partition's schema; nil: build in full
	mask  uint32       // tpch.Fill mask of pos
	yield func(data.Record) bool
	err   error // first pred error

	first int64                 // generator row of batch row 0
	sel   [data.BatchRows]int32 // the batch's natural rows, then pred's matches
	vals  []data.Value          // a natural match's projected columns
	ints  []int64               // the batch's column vectors, one per kind
	flts  []float64
}

var rowScans = sync.Pool{New: func() any { return new(rowScan) }}

// scan runs one rowScan over the rows cov covers.
func (p *Partition) scan(pred data.Filter, proj *data.Schema, yield func(data.Record) bool, cov coverage) error {
	s := rowScans.Get().(*rowScan)
	s.p, s.gen, s.pred, s.proj, s.yield, s.err = p, p.ds.generator(), pred, proj, yield, nil
	s.pos, s.mask = nil, 0
	if proj != nil {
		s.pos, _ = proj.Positions(tpch.LineItemSchema)
		for _, c := range s.pos {
			s.mask |= 1 << c
		}
	}
	switch cov {
	case plantedRows:
		for _, pos := range p.matchPos {
			if !s.planted(pos) {
				break
			}
		}
	default:
		s.zones(cov == matchZones)
	}
	err := s.err
	s.p, s.gen, s.pred, s.proj, s.yield = nil, nil, nil, nil, nil
	rowScans.Put(s)
	return err
}

// zones visits every row of the partition's zones in order, in batches
// that do not cross a zone's end, skipping the zones without planted
// rows when skipEmpty is set (the skip view).
func (s *rowScan) zones(skipEmpty bool) {
	next := 0 // index into matchPos of the next planted row
	for _, z := range s.p.zones {
		if skipEmpty && z.Matches == 0 {
			continue
		}
		// Zones are visited in order and a skipped zone holds no planted
		// row, so matchPos[next] is already >= z.FirstRow.
		end := z.FirstRow + z.Rows
		for lo := z.FirstRow; lo < end; lo += data.BatchRows {
			if !s.batch(lo, min(lo+data.BatchRows, end), &next) {
				return
			}
		}
	}
}

// batch visits rows [lo, hi) of the partition, whose planted rows start
// at matchPos[*next]: it tests the natural rows as one batch and the
// planted ones on their whole records, yields the matches in row order,
// and reports whether the scan goes on.
func (s *rowScan) batch(lo, hi int64, next *int) bool {
	mp := s.p.matchPos
	sel, j := s.sel[:0], *next
	for i := lo; i < hi; i++ {
		if j < len(mp) && mp[j] == i {
			j++
			continue
		}
		sel = append(sel, int32(i-lo))
	}
	planted := mp[*next:j]
	*next = j
	s.first = s.p.startRow + lo
	n, at, err := s.pred.TestBatch(s, sel)
	end := hi // the rows before end are decided
	if err != nil {
		end = lo + int64(at)
	}
	m := 0
	for _, pos := range planted {
		if pos > end {
			break
		}
		for ; m < n && lo+int64(sel[m]) < pos; m++ {
			if !s.natural(lo + int64(sel[m])) {
				return false
			}
		}
		if !s.planted(pos) {
			return false
		}
	}
	for ; m < n; m++ {
		if !s.natural(lo + int64(sel[m])) {
			return false
		}
	}
	if err != nil {
		s.err = err
		return false
	}
	return true
}

// natural yields natural row i, which pred accepted.
func (s *rowScan) natural(i int64) bool {
	if s.pos == nil {
		rec := s.p.row(s.gen, i, false)
		if s.proj != nil {
			rec = rec.Project(s.proj)
		}
		return s.yield(rec)
	}
	if s.vals == nil {
		s.vals = make([]data.Value, tpch.LineItemSchema.Len())
	}
	s.gen.Fill(s.p.startRow+i, s.mask, s.vals)
	vals := make([]data.Value, len(s.pos))
	for k, c := range s.pos {
		vals[k] = s.vals[c]
	}
	return s.yield(data.NewRecord(s.proj, vals))
}

// planted tests planted row i on its whole record and yields it if pred
// accepts it. The record is built fresh for TestRow, since a filter may
// keep the records it tests.
func (s *rowScan) planted(i int64) bool {
	rec := s.p.row(s.gen, i, true)
	ok, err := s.pred.TestRow(rec)
	if err != nil {
		s.err = err
		return false
	}
	if !ok {
		return true
	}
	if s.proj != nil {
		rec = rec.Project(s.proj)
	}
	return s.yield(rec)
}

// Ints implements data.Batch.
func (s *rowScan) Ints(col int, sel []int32) []int64 {
	if s.ints == nil {
		s.ints = make([]int64, data.BatchRows)
	}
	s.gen.FillInts(col, s.first, sel, s.ints)
	return s.ints
}

// Floats implements data.Batch.
func (s *rowScan) Floats(col int, sel []int32) []float64 {
	if s.flts == nil {
		s.flts = make([]float64, data.BatchRows)
	}
	s.gen.FillFloats(col, s.first, sel, s.flts)
	return s.flts
}

// Fill implements data.Batch.
func (s *rowScan) Fill(k int32, cols []int, vals []data.Value) {
	var mask uint32
	for _, c := range cols {
		mask |= 1 << c
	}
	s.gen.Fill(s.first+int64(k), mask, vals)
}

// AcceleratedMatches returns the partition's matching records for the
// given predicate fingerprint without a full scan, or ok=false when the
// predicate is not the dataset's planted one. The returned records are
// byte-identical to what Scan would yield at the planted positions
// (property-tested), so a map task may use this as a shortcut while the
// simulator still charges full-scan I/O and CPU for the split. It is
// ProjectedMatches with no projection.
func (p *Partition) AcceleratedMatches(fingerprint string, limit int64) ([]data.Record, bool) {
	return p.ProjectedMatches(fingerprint, limit, nil)
}

// ProjectedMatches is AcceleratedMatches with the query's projection
// pushed down: the first limit (<0 = all) planted matches, each equal to
// the whole match's Project(proj). A projection made from the
// partition's schema costs only its own columns: each match is filled
// with those columns, its planted value among them when proj selects
// the predicate's column, and copied out by position. The records of
// one call share one values array, each owning its own run of it. A
// nil proj yields whole records, and any other projection is applied
// by name to whole records.
func (p *Partition) ProjectedMatches(fingerprint string, limit int64, proj *data.Schema) ([]data.Record, bool) {
	if fingerprint != p.ds.fp {
		return nil, false
	}
	matches := p.matchPos
	if limit >= 0 && limit < int64(len(matches)) {
		matches = matches[:limit]
	}
	gen := p.ds.generator()
	out := make([]data.Record, len(matches))
	var pos []int
	byPos := false
	if proj != nil {
		pos, byPos = proj.Positions(tpch.LineItemSchema)
	}
	if !byPos {
		for k, i := range matches {
			out[k] = p.row(gen, i, true)
			if proj != nil {
				out[k] = out[k].Project(proj)
			}
		}
		return out, true
	}
	var need uint32
	for _, c := range pos {
		need |= 1 << c
	}
	row := make([]data.Value, tpch.LineItemSchema.Len())
	w := len(pos)
	vals := make([]data.Value, len(matches)*w)
	for k, i := range matches {
		p.fill(gen, i, need, true, row)
		rec := vals[k*w : (k+1)*w : (k+1)*w]
		for j, c := range pos {
			rec[j] = row[c]
		}
		out[k] = data.NewRecord(proj, rec)
	}
	return out, true
}

// AcceleratedMatchCount returns the number of records matching the
// fingerprinted predicate without scanning or materialising, or
// ok=false when the predicate is not the planted one.
func (p *Partition) AcceleratedMatchCount(fingerprint string) (int64, bool) {
	if fingerprint != p.ds.fp {
		return 0, false
	}
	return p.NumMatches(), true
}

// ScanMatches runs the real filter path: a scan evaluating pred,
// collecting up to limit (<0 = all) matching records.
func (p *Partition) ScanMatches(pred expr.Expr, limit int64) ([]data.Record, error) {
	if limit == 0 {
		return nil, nil
	}
	var out []data.Record
	err := expr.ScanFilter(p, pred, nil, func(r data.Record) bool {
		out = append(out, r)
		return limit < 0 || int64(len(out)) < limit
	})
	return out, err
}
