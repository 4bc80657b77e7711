package dataset

import (
	"fmt"
	"math/rand"
	"sort"

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
	// Scale*PartitionsPerScale.
	Partitions int
	// RowsOverride, when positive, replaces Scale*tpch.RowsPerScale as
	// the total row count. Tests use it to build small datasets that can
	// be fully scanned; production specs leave it zero.
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
	level, err := LevelForZ(spec.Z)
	if err != nil {
		return nil, err
	}
	if spec.Selectivity == 0 {
		spec.Selectivity = DefaultSelectivity
	}
	if spec.Selectivity < 0 || spec.Selectivity > 1 {
		return nil, fmt.Errorf("dataset: selectivity %v out of [0,1]", spec.Selectivity)
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

// Spec returns the build specification (with defaults filled in).
func (d *Dataset) Spec() Spec { return d.spec }

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

// Dataset returns the owning dataset.
func (p *Partition) Dataset() *Dataset { return p.ds }

// Schema implements data.Source.
func (p *Partition) Schema() *data.Schema { return tpch.LineItemSchema }

// NumRecords implements data.Source.
func (p *Partition) NumRecords() int64 { return p.numRows }

// SizeBytes implements data.Source.
func (p *Partition) SizeBytes() int64 { return p.bytes }

// NumMatches returns the number of planted matching rows.
func (p *Partition) NumMatches() int64 { return int64(len(p.matchPos)) }

// row materialises the partition's i-th record, applying the plant
// transform if position i carries a planted match.
func (p *Partition) row(gen *tpch.Generator, i int64, planted bool) data.Record {
	r := gen.Row(p.startRow + i)
	if planted {
		rng := &plantRNG{state: uint64(p.startRow+i) ^ uint64(p.ds.spec.Seed)*0x9e3779b9}
		r = p.ds.level.plant(r, rng)
	}
	return r
}

// Scan implements data.Source: every record in order, matches planted
// in place.
func (p *Partition) Scan(yield func(data.Record) bool) {
	p.newRowScan(yield).zones(false)
}

// ScanWhere implements data.FilterSource over the whole partition.
func (p *Partition) ScanWhere(cols []int, keep func(data.Record) (bool, error), proj *data.Schema, yield func(data.Record) bool) error {
	return p.filterScan(cols, keep, proj, yield, func(s *rowScan) { s.zones(false) })
}

// rowScan is one pass of the partition's row loop, shared by Scan,
// ScanWhere and both pruned views. With keep set it materialises late:
// a natural row is first filled with only the need columns into a
// reused scratch record and tested. A row keep accepts then gets only
// its projected columns filled and copied out by position, or is built
// in full when there is no projection or the projection was not made
// from the partition's schema. Planted rows are always built in full
// before keep sees them, since the plant transform rewrites a whole
// record, and projected only after. Every row is still generated from
// the same counter-based stream, so the yielded records equal a plain
// scan's, filtered and projected.
type rowScan struct {
	p       *Partition
	gen     *tpch.Generator
	need    uint32                          // tpch.Fill mask of the columns keep reads
	keep    func(data.Record) (bool, error) // nil: yield every row
	proj    *data.Schema                    // nil: yield whole rows
	pos     []int                           // proj's positions in the partition's schema; nil: build in full
	rest    uint32                          // tpch.Fill mask of the projected columns need lacks
	vals    []data.Value                    // scratch's backing values, reused per row
	scratch data.Record                     // keep's view of a natural row
	yield   func(data.Record) bool
	err     error // first keep error
}

func (p *Partition) newRowScan(yield func(data.Record) bool) *rowScan {
	return &rowScan{p: p, gen: p.ds.generator(), yield: yield}
}

// filterScan is ScanWhere over the rows walk visits.
func (p *Partition) filterScan(cols []int, keep func(data.Record) (bool, error), proj *data.Schema, yield func(data.Record) bool, walk func(*rowScan)) error {
	s := p.newRowScan(yield)
	for _, c := range cols {
		if c < 0 || c >= tpch.LineItemSchema.Len() {
			return fmt.Errorf("dataset: column index %d out of range", c)
		}
		s.need |= 1 << c
	}
	s.keep, s.proj = keep, proj
	if proj != nil {
		s.pos, _ = proj.Positions(tpch.LineItemSchema)
		for _, c := range s.pos {
			s.rest |= 1 << c
		}
		s.rest &^= s.need
	}
	s.vals = make([]data.Value, tpch.LineItemSchema.Len())
	s.scratch = data.NewRecord(tpch.LineItemSchema, s.vals)
	walk(s)
	return s.err
}

// visit produces the partition's i-th row and reports whether the scan
// goes on.
func (s *rowScan) visit(i int64, planted bool) bool {
	if s.keep != nil && !planted {
		if !s.test(s.fill(i)) {
			return s.err == nil
		}
		if s.pos != nil {
			return s.yield(s.project(i))
		}
	}
	rec := s.p.row(s.gen, i, planted)
	if s.keep != nil && planted && !s.test(rec) {
		return s.err == nil
	}
	if s.proj != nil {
		rec = rec.Project(s.proj)
	}
	return s.yield(rec)
}

// fill writes the need columns of natural row i into the scratch record
// (none for a predicate that reads no column, such as TRUE).
func (s *rowScan) fill(i int64) data.Record {
	if s.need != 0 {
		s.gen.Fill(s.p.startRow+i, s.need, s.vals)
	}
	return s.scratch
}

// project builds the projected record of natural row i, whose need
// columns fill has just written: it fills the rest of the projection
// into the scratch values and copies the projection out by position.
func (s *rowScan) project(i int64) data.Record {
	if s.rest != 0 {
		s.gen.Fill(s.p.startRow+i, s.rest, s.vals)
	}
	vals := make([]data.Value, len(s.pos))
	for k, c := range s.pos {
		vals[k] = s.vals[c]
	}
	return data.NewRecord(s.proj, vals)
}

// test applies keep, recording its first error.
func (s *rowScan) test(r data.Record) bool {
	ok, err := s.keep(r)
	if err != nil {
		s.err = err
		return false
	}
	return ok
}

// zones visits every row of the partition's zones in order, skipping the
// zones without planted rows when skipEmpty is set (the skip view).
func (s *rowScan) zones(skipEmpty bool) {
	p := s.p
	next := 0 // index into matchPos of the next planted row
	for _, z := range p.zones {
		if skipEmpty && z.Matches == 0 {
			continue
		}
		// Zones are visited in order and a skipped zone holds no planted
		// row, so matchPos[next] is already >= z.FirstRow.
		for i := z.FirstRow; i < z.FirstRow+z.Rows; i++ {
			planted := next < len(p.matchPos) && p.matchPos[next] == i
			if planted {
				next++
			}
			if !s.visit(i, planted) {
				return
			}
		}
	}
}

// plantedOnly visits only the planted rows (the clustered-index view).
func (s *rowScan) plantedOnly() {
	for _, pos := range s.p.matchPos {
		if !s.visit(pos, true) {
			return
		}
	}
}

// AcceleratedMatches returns the partition's matching records for the
// given predicate fingerprint without a full scan, or ok=false when the
// predicate is not the dataset's planted one. The returned records are
// byte-identical to what Scan would yield at the planted positions
// (property-tested), so a map task may use this as a shortcut while the
// simulator still charges full-scan I/O and CPU for the split.
func (p *Partition) AcceleratedMatches(fingerprint string, limit int64) ([]data.Record, bool) {
	if fingerprint != p.ds.fp {
		return nil, false
	}
	n := int64(len(p.matchPos))
	if limit >= 0 && limit < n {
		n = limit
	}
	gen := p.ds.generator()
	out := make([]data.Record, 0, n)
	for _, pos := range p.matchPos[:n] {
		out = append(out, p.row(gen, pos, true))
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
