package tpch

import (
	"fmt"

	"dynamicmr/internal/data"
)

// RowsPerScale is the LINEITEM cardinality at scale factor 1
// (the TPC-H spec's ~6M rows at SF 1; the paper's 5x dataset therefore
// holds 30 million rows, matching §V-B).
const RowsPerScale = 6_000_000

// LineItemSchema is the LINEITEM column set, each column declaring the
// kind of every value the generator produces for it.
var LineItemSchema = data.NewTypedSchema(
	data.Field{Name: "L_ORDERKEY", Kind: data.KindInt},
	data.Field{Name: "L_PARTKEY", Kind: data.KindInt},
	data.Field{Name: "L_SUPPKEY", Kind: data.KindInt},
	data.Field{Name: "L_LINENUMBER", Kind: data.KindInt},
	data.Field{Name: "L_QUANTITY", Kind: data.KindInt},
	data.Field{Name: "L_EXTENDEDPRICE", Kind: data.KindFloat},
	data.Field{Name: "L_DISCOUNT", Kind: data.KindFloat},
	data.Field{Name: "L_TAX", Kind: data.KindFloat},
	data.Field{Name: "L_RETURNFLAG", Kind: data.KindString},
	data.Field{Name: "L_LINESTATUS", Kind: data.KindString},
	data.Field{Name: "L_SHIPDATE", Kind: data.KindString},
	data.Field{Name: "L_COMMITDATE", Kind: data.KindString},
	data.Field{Name: "L_RECEIPTDATE", Kind: data.KindString},
	data.Field{Name: "L_SHIPINSTRUCT", Kind: data.KindString},
	data.Field{Name: "L_SHIPMODE", Kind: data.KindString},
	data.Field{Name: "L_COMMENT", Kind: data.KindString},
)

// Column index constants into LineItemSchema, for fast generated access.
const (
	ColOrderKey = iota
	ColPartKey
	ColSuppKey
	ColLineNumber
	ColQuantity
	ColExtendedPrice
	ColDiscount
	ColTax
	ColReturnFlag
	ColLineStatus
	ColShipDate
	ColCommitDate
	ColReceiptDate
	ColShipInstruct
	ColShipMode
	ColComment
)

var (
	returnFlags   = []string{"R", "A", "N"}
	lineStatuses  = []string{"O", "F"}
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	// ShipModes are the seven TPC-H transport modes. Values outside this
	// set never occur naturally, which the skew planner exploits.
	ShipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

	commentNouns = []string{
		"packages", "requests", "accounts", "deposits", "foxes", "ideas",
		"theodolites", "pinto beans", "instructions", "dependencies",
		"excuses", "platelets", "asymptotes", "courts", "dolphins",
	}
	commentVerbs = []string{
		"sleep", "wake", "haggle", "nag", "cajole", "boost", "detect",
		"engage", "integrate", "doze", "snooze", "wake quickly",
	}
	commentAdverbs = []string{
		"quickly", "slowly", "carefully", "furiously", "blithely",
		"daringly", "ruthlessly", "silently", "finally",
	}
)

// Generator produces LINEITEM rows for a (seed, scale) pair. It is
// stateless per row and safe for concurrent use.
type Generator struct {
	seed  uint64
	scale int
	rows  int64
}

// NewGenerator creates a generator for the given random seed and TPC-H
// scale factor (the paper uses scales 5, 10, 20, 40 and 100).
func NewGenerator(seed uint64, scale int) *Generator {
	if scale <= 0 {
		panic(fmt.Sprintf("tpch: scale must be positive, got %d", scale))
	}
	return &Generator{seed: seed, scale: scale, rows: int64(scale) * RowsPerScale}
}

// NumRows returns the LINEITEM cardinality at this scale.
func (g *Generator) NumRows() int64 { return g.rows }

// dateTableSize covers 1992-01-01 .. 1998-12-31 (2557 days) plus the
// slack commit/receipt offsets can add.
const dateTableSize = 2557 + 64

// dateTable holds every date string row generation can produce;
// materialising rows is hot (every accelerated match allocates one),
// so dates are precomputed once.
var dateTable = buildDateTable()

func buildDateTable() [dateTableSize]string {
	var out [dateTableSize]string
	for i := range out {
		out[i] = computeDateString(int64(i))
	}
	return out
}

// computeDateString formats an epoch-day offset from 1992-01-01 as
// YYYY-MM-DD, handling the 1992/1996 leap years.
func computeDateString(dayOffset int64) string {
	y := 1992
	d := dayOffset
	for {
		ylen := int64(365)
		if y%4 == 0 {
			ylen = 366
		}
		if d < ylen {
			break
		}
		d -= ylen
		y++
	}
	months := [...]int64{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	if y%4 == 0 {
		months[1] = 29
	}
	m := 0
	for d >= months[m] {
		d -= months[m]
		m++
	}
	return fmt.Sprintf("%04d-%02d-%02d", y, m+1, d+1)
}

// dateString returns the date `dayOffset` days after 1992-01-01.
func dateString(dayOffset int64) string {
	if dayOffset >= 0 && dayOffset < dateTableSize {
		return dateTable[dayOffset]
	}
	return computeDateString(dayOffset)
}

// AllColumns is the Fill mask selecting every LINEITEM column.
const AllColumns uint32 = 1<<16 - 1

// Row generates row i (0-based). Rows are independent; generating row
// 10^9 costs the same as row 0.
func (g *Generator) Row(i int64) data.Record {
	vals := make([]data.Value, LineItemSchema.Len())
	g.Fill(i, AllColumns, vals)
	return data.NewRecord(LineItemSchema, vals)
}

// Draw numbers: each random choice of a row reads its own fixed draw of
// the row's stream, numbered in the order the choices were once drawn
// sequentially, so every value equals the sequential generator's.
const (
	drawPartKey = iota + 1
	drawSuppKey
	drawQuantity
	drawRetail
	drawDiscount
	drawTax
	drawShipDay
	drawCommit
	drawReceipt
	drawFlagStatus // L_RETURNFLAG or L_LINESTATUS, whichever the ship date leaves random
	drawAdverb
	drawNoun
	drawVerb
	drawShipInstruct
	drawShipMode
)

// Fill writes the columns of row i selected by need (bit c set for
// column index c) into vals, leaving the other entries untouched. It
// computes only the draws the selected columns read, so each filled
// column equals Row(i)'s at a fraction of its cost. vals must hold
// LineItemSchema.Len() values.
func (g *Generator) Fill(i int64, need uint32, vals []data.Value) {
	g.checkRow(i)
	s := rowStream(g.seed, uint64(i))
	has := func(col int) bool { return need&(1<<col) != 0 }

	if has(ColOrderKey) {
		vals[ColOrderKey] = data.Int(orderKey(i))
	}
	if has(ColPartKey) {
		vals[ColPartKey] = data.Int(g.partKey(s))
	}
	if has(ColSuppKey) {
		vals[ColSuppKey] = data.Int(g.suppKey(s))
	}
	if has(ColLineNumber) {
		vals[ColLineNumber] = data.Int(lineNumber(i))
	}
	if has(ColQuantity) || has(ColExtendedPrice) {
		q := quantity(s)
		if has(ColQuantity) {
			vals[ColQuantity] = data.Int(q)
		}
		if has(ColExtendedPrice) {
			vals[ColExtendedPrice] = data.Float(extendedPrice(s, q))
		}
	}
	if has(ColDiscount) {
		vals[ColDiscount] = data.Float(discount(s))
	}
	if has(ColTax) {
		vals[ColTax] = data.Float(tax(s))
	}

	const dated = 1<<ColReturnFlag | 1<<ColLineStatus | 1<<ColShipDate | 1<<ColCommitDate | 1<<ColReceiptDate
	if need&dated != 0 {
		shipDay := s.between(drawShipDay, 1, 2526)
		if has(ColShipDate) {
			vals[ColShipDate] = data.Str(dateString(shipDay))
		}
		if has(ColCommitDate) {
			vals[ColCommitDate] = data.Str(dateString(max(shipDay+s.between(drawCommit, -30, 30), 0)))
		}
		if has(ColReceiptDate) {
			vals[ColReceiptDate] = data.Str(dateString(shipDay + s.between(drawReceipt, 1, 30)))
		}
		if has(ColReturnFlag) || has(ColLineStatus) {
			// Older shipments are returned (R or A) and fulfilled (F);
			// newer ones are not returned (N) and either open or
			// fulfilled.
			returnFlag, lineStatus := "N", "F"
			if shipDay < 1700 {
				returnFlag = pick(s, drawFlagStatus, returnFlags[:2])
			} else {
				lineStatus = pick(s, drawFlagStatus, lineStatuses)
			}
			if has(ColReturnFlag) {
				vals[ColReturnFlag] = data.Str(returnFlag)
			}
			if has(ColLineStatus) {
				vals[ColLineStatus] = data.Str(lineStatus)
			}
		}
	}

	if has(ColShipInstruct) {
		vals[ColShipInstruct] = data.Str(pick(s, drawShipInstruct, shipInstructs))
	}
	if has(ColShipMode) {
		vals[ColShipMode] = data.Str(pick(s, drawShipMode, ShipModes))
	}
	if has(ColComment) {
		vals[ColComment] = data.Str(pick(s, drawAdverb, commentAdverbs) + " " +
			pick(s, drawNoun, commentNouns) + " " + pick(s, drawVerb, commentVerbs))
	}
}

// FillInts writes INT column col of rows first+sel[k] into dst[sel[k]],
// computing only that column's draws. FillFloats does the same for a
// FLOAT column. Each value equals Row's.
func (g *Generator) FillInts(col int, first int64, sel []int32, dst []int64) {
	g.checkRows(first, sel)
	for _, k := range sel {
		i := first + int64(k)
		dst[k] = g.intAt(col, i, rowStream(g.seed, uint64(i)))
	}
}

// FillFloats is FillInts for a FLOAT column.
func (g *Generator) FillFloats(col int, first int64, sel []int32, dst []float64) {
	g.checkRows(first, sel)
	for _, k := range sel {
		dst[k] = floatAt(col, rowStream(g.seed, uint64(first+int64(k))))
	}
}

func (g *Generator) checkRow(i int64) {
	if i < 0 || i >= g.rows {
		panic(fmt.Sprintf("tpch: row %d out of range [0,%d)", i, g.rows))
	}
}

// checkRows checks the rows first+sel[k] of an ascending sel.
func (g *Generator) checkRows(first int64, sel []int32) {
	if len(sel) > 0 {
		g.checkRow(first + int64(sel[0]))
		g.checkRow(first + int64(sel[len(sel)-1]))
	}
}

// intAt and floatAt return one column of row i, whose stream is s,
// computing only the draws it reads; they and Fill share each numeric
// column's formula below.
func (g *Generator) intAt(col int, i int64, s stream) int64 {
	switch col {
	case ColOrderKey:
		return orderKey(i)
	case ColPartKey:
		return g.partKey(s)
	case ColSuppKey:
		return g.suppKey(s)
	case ColLineNumber:
		return lineNumber(i)
	case ColQuantity:
		return quantity(s)
	}
	panic(fmt.Sprintf("tpch: column %d is not an INT column", col))
}

func floatAt(col int, s stream) float64 {
	switch col {
	case ColExtendedPrice:
		return extendedPrice(s, quantity(s))
	case ColDiscount:
		return discount(s)
	case ColTax:
		return tax(s)
	}
	panic(fmt.Sprintf("tpch: column %d is not a FLOAT column", col))
}

func orderKey(i int64) int64   { return i/4 + 1 } // ~4 lineitems per order
func lineNumber(i int64) int64 { return i%4 + 1 }

func (g *Generator) partKey(s stream) int64 { return s.between(drawPartKey, 1, int64(g.scale)*200_000) }
func (g *Generator) suppKey(s stream) int64 { return s.between(drawSuppKey, 1, int64(g.scale)*10_000) }

func quantity(s stream) int64 { return s.between(drawQuantity, 1, 50) }

// extendedPrice is a retail price of ~900..2100 scaled by quantity.
func extendedPrice(s stream, quantity int64) float64 {
	return round2(float64(quantity) * (900.0 + s.unit(drawRetail)*1200.0))
}

func discount(s stream) float64 { return float64(s.between(drawDiscount, 0, 10)) / 100.0 }
func tax(s stream) float64      { return float64(s.between(drawTax, 0, 8)) / 100.0 }

func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}

// AvgRowBytes is the measured average encoded row size, used to size
// partitions without generating them. It is validated by tests against
// the real generator within a small tolerance.
const AvgRowBytes = 125
