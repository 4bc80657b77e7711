// Package dataset builds the paper's evaluation datasets (§V-B):
// partitioned TPC-H LINEITEM files in which, for one known predicate per
// skew level, exactly selectivity×T records match, with the matching
// records distributed across partitions by a Zipfian draw.
//
// The predicates are chosen on columns whose *natural* generator domain
// can never satisfy them (the paper equivalently rewrites non-matching
// records "to ensure that the remaining records contained random values
// not satisfying the predicate"); planting a match then only requires
// rewriting the planted row's column into the out-of-domain value.
package dataset

import (
	"fmt"

	"dynamicmr/internal/data"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/tpch"
)

// SkewLevel identifies a row of the paper's Table III: a Zipf exponent
// and its associated predicate.
type SkewLevel struct {
	// Z is the Zipfian exponent (0 = uniform, 1 = moderate, 2 = high).
	Z float64
	// Name is the human label used in figures.
	Name string
	// Predicate is the selection predicate whose matches are planted.
	Predicate expr.Expr
	// statCol is the LineItemSchema index of the predicate's column.
	// Planting a match writes only that column: plant draws the value
	// from the planted row's plantRNG.
	statCol int
	plant   func(plantRNG) data.Value

	// Zone-map metadata for the predicate's column: the generator's
	// natural value domain [natMin, natMax] and the planted values'
	// domain [plantMin, plantMax]. A stat sub-block's min/max is the
	// natural domain, extended by the plant domain when the block holds
	// planted rows — conservative bounds that contain every value the
	// block can produce (pinned by TestZoneBoundsAreConservative).
	natMin, natMax     data.Value
	plantMin, plantMax data.Value
}

// StatColumn returns the predicate's column, the one the zone map keeps
// min/max bounds for.
func (l SkewLevel) StatColumn() string { return tpch.LineItemSchema.Columns()[l.statCol] }

// plantRNG supplies deterministic randomness for plant draws, so a
// planted row's value varies rather than being constant. Each planted
// row seeds its own, and passes it by value, so a draw allocates
// nothing.
type plantRNG struct{ state uint64 }

func (p *plantRNG) next() uint64 {
	p.state = p.state*6364136223846793005 + 1442695040888963407
	x := p.state
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func (p *plantRNG) intn(n int64) int64 { return int64(p.next() % uint64(n)) }

// Table III equivalents. The paper picked "an arbitrary column" per skew
// level with overall selectivity fixed at 0.05%; we do the same with
// columns whose natural domains exclude the predicate's value:
//
//	z=0: L_DISCOUNT = 0.11      (natural discounts are 0.00–0.10)
//	z=1: L_QUANTITY > 50        (natural quantities are 1–50)
//	z=2: L_SHIPMODE = 'DRONE'   (not one of the seven TPC-H modes)
var skewLevels = []SkewLevel{
	{
		Z:    0,
		Name: "zero skew (uniform)",
		Predicate: &expr.Binary{Op: expr.OpEq,
			L: &expr.Column{Name: "L_DISCOUNT"},
			R: &expr.Literal{Val: data.Float(0.11)}},
		statCol: tpch.ColDiscount,
		plant:   func(plantRNG) data.Value { return data.Float(0.11) },
		natMin:  data.Float(0.00), natMax: data.Float(0.10),
		plantMin: data.Float(0.11), plantMax: data.Float(0.11),
	},
	{
		Z:    1,
		Name: "moderate skew",
		Predicate: &expr.Binary{Op: expr.OpGt,
			L: &expr.Column{Name: "L_QUANTITY"},
			R: &expr.Literal{Val: data.Int(50)}},
		statCol: tpch.ColQuantity,
		plant:   func(rng plantRNG) data.Value { return data.Int(51 + rng.intn(10)) },
		natMin:  data.Int(1), natMax: data.Int(50),
		plantMin: data.Int(51), plantMax: data.Int(60),
	},
	{
		Z:    2,
		Name: "high skew",
		Predicate: &expr.Binary{Op: expr.OpEq,
			L: &expr.Column{Name: "L_SHIPMODE"},
			R: &expr.Literal{Val: data.Str("DRONE")}},
		statCol: tpch.ColShipMode,
		plant:   func(plantRNG) data.Value { return data.Str("DRONE") },
		// Note 'DRONE' sorts lexicographically *inside* ['AIR', 'TRUCK'],
		// so min/max range pruning alone cannot exclude it; the exact
		// match-presence bit (free, since matches are planted) is what
		// makes z=2 blocks skippable. See DESIGN.md "Input path".
		natMin: data.Str("AIR"), natMax: data.Str("TRUCK"),
		plantMin: data.Str("DRONE"), plantMax: data.Str("DRONE"),
	},
}

// SkewLevels returns the Table III rows (z, name, predicate).
func SkewLevels() []SkewLevel { return skewLevels }

// LevelForZ returns the skew level for an exponent.
func LevelForZ(z float64) (SkewLevel, error) {
	for _, l := range skewLevels {
		if l.Z == z {
			return l, nil
		}
	}
	return SkewLevel{}, fmt.Errorf("dataset: no predicate defined for z=%v (have 0, 1, 2)", z)
}

// PredicateForZ returns the planted predicate for a skew exponent.
func PredicateForZ(z float64) (expr.Expr, error) {
	l, err := LevelForZ(z)
	if err != nil {
		return nil, err
	}
	return l.Predicate, nil
}

var _ = tpch.ShipModes // documented relationship: DRONE ∉ ShipModes
