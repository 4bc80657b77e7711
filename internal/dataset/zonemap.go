package dataset

import (
	"dynamicmr/internal/data"
	"dynamicmr/internal/tpch"
)

// StatBlockRows is the statistics sub-block granularity: each partition
// is covered by consecutive StatBlockRows-row zones, the unit the skip
// rule operates on. 4096 rows keeps quick partitions (~15k rows) at a
// handful of zones while workload partitions (~300k rows) get enough
// zones for skew to concentrate matches into a small fraction of them.
const StatBlockRows = 4096

// ZoneEntry is one sub-block's statistics: its row range, its byte
// cost, the exact planted-match count, and conservative min/max bounds
// for the predicate column. Because the planted predicates never match
// the generator's natural domain, the zone map is exact without any
// scan: Matches comes straight from the partition's planted positions,
// and the bounds are the natural domain extended by the plant domain
// when the zone holds planted rows.
type ZoneEntry struct {
	// FirstRow is the in-partition offset of the zone's first row.
	FirstRow int64
	// Rows and Bytes are the zone's extent (Bytes = Rows × avg row size,
	// matching the partition's own size accounting exactly).
	Rows  int64
	Bytes int64
	// Matches is the exact number of planted matching rows in the zone.
	Matches int64
	// Min and Max bound every value the predicate column takes in the
	// zone.
	Min, Max data.Value
}

// buildZones computes the partition's zone map and aggregate BlockStats
// from the already-sorted matchPos — O(zones + matches), no scan. Called
// once from Build.
func (p *Partition) buildZones() {
	lvl := p.ds.level
	nz := int((p.numRows + StatBlockRows - 1) / StatBlockRows)
	zones := make([]ZoneEntry, 0, nz)
	var stats data.BlockStats
	next := 0 // next unconsumed index into matchPos
	for first := int64(0); first < p.numRows; first += StatBlockRows {
		rows := p.numRows - first
		if rows > StatBlockRows {
			rows = StatBlockRows
		}
		var m int64
		for next < len(p.matchPos) && p.matchPos[next] < first+rows {
			m++
			next++
		}
		z := ZoneEntry{
			FirstRow: first,
			Rows:     rows,
			Bytes:    rows * tpch.AvgRowBytes,
			Matches:  m,
			Min:      lvl.natMin,
			Max:      lvl.natMax,
		}
		if m > 0 {
			if c, err := data.Compare(lvl.plantMin, z.Min); err == nil && c < 0 {
				z.Min = lvl.plantMin
			}
			if c, err := data.Compare(lvl.plantMax, z.Max); err == nil && c > 0 {
				z.Max = lvl.plantMax
			}
		}
		zones = append(zones, z)
		stats.Blocks++
		stats.Rows += rows
		stats.Bytes += z.Bytes
		if m > 0 {
			stats.MatchBlocks++
			stats.MatchRows += rows
			stats.MatchBytes += z.Bytes
			stats.Matches += m
		}
	}
	p.zones = zones
	p.stats = stats
}

// BlockStats implements data.StatSource: the aggregate zone-map summary
// for the planted predicate's fingerprint. ok is false for any other
// fingerprint — the statistics only describe the planted family.
func (p *Partition) BlockStats(fingerprint string) (data.BlockStats, bool) {
	if fingerprint != p.ds.fp {
		return data.BlockStats{}, false
	}
	return p.stats, true
}

// PruneScan implements data.PrunableSource: a view of the partition
// restricted to what a skip-scan (indexed=false: every row of every
// match-admitting zone) or a clustered-index read (indexed=true: only
// the planted rows themselves) touches. The views generate the same
// records a full scan yields at the same positions, so filtering either
// view by the fingerprinted predicate reproduces the full-scan filter
// output exactly (property-tested). The fast accelerated paths delegate
// to the partition unchanged.
func (p *Partition) PruneScan(fingerprint string, indexed bool) (data.Source, bool) {
	if fingerprint != p.ds.fp {
		return nil, false
	}
	return &prunedView{p: p, indexed: indexed}, true
}

// prunedView is the transient pruned Source PruneScan returns. It is
// created per scan and never stored on a dfs.Block, so block identity
// (memo keys, executor keys, residency keys) always refers to the
// underlying partition.
type prunedView struct {
	p       *Partition
	indexed bool
}

func (v *prunedView) Schema() *data.Schema { return v.p.Schema() }

func (v *prunedView) NumRecords() int64 {
	if v.indexed {
		return v.p.stats.Matches
	}
	return v.p.stats.MatchRows
}

func (v *prunedView) SizeBytes() int64 {
	if v.indexed {
		return v.p.stats.Matches * tpch.AvgRowBytes
	}
	return v.p.stats.MatchBytes
}

// Scan yields the covered records in source order: the indexed view
// visits the planted rows, the skip view the rows of every zone holding
// one, both through the partition's own row loop.
func (v *prunedView) Scan(yield func(data.Record) bool) {
	_ = v.p.scan(everyRow{}, nil, yield, v.coverage())
}

// ScanWhere implements data.FilterSource over the view's coverage.
func (v *prunedView) ScanWhere(pred data.Filter, proj *data.Schema, yield func(data.Record) bool) error {
	return v.p.scan(pred, proj, yield, v.coverage())
}

func (v *prunedView) coverage() coverage {
	if v.indexed {
		return plantedRows
	}
	return matchZones
}

// AcceleratedMatches delegates to the partition: the pruned views cover
// every planted row, so the accelerated shortcut is identical.
func (v *prunedView) AcceleratedMatches(fingerprint string, limit int64) ([]data.Record, bool) {
	return v.p.AcceleratedMatches(fingerprint, limit)
}

// ProjectedMatches delegates to the partition, as AcceleratedMatches
// does.
func (v *prunedView) ProjectedMatches(fingerprint string, limit int64, proj *data.Schema) ([]data.Record, bool) {
	return v.p.ProjectedMatches(fingerprint, limit, proj)
}

// AcceleratedMatchCount delegates to the partition.
func (v *prunedView) AcceleratedMatchCount(fingerprint string) (int64, bool) {
	return v.p.AcceleratedMatchCount(fingerprint)
}
