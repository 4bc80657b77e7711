package expr

import (
	"sync"

	"dynamicmr/internal/data"
)

// rowTest is a compiled predicate's test of one record: it returns the
// result and error that EvalBool returns for the tree it was compiled
// from. On an error the result is false, as EvalBool's is.
type rowTest interface {
	test(rec data.Record) (bool, error)
}

// node is a compiled predicate: its row test, and filter, the same test
// over the rows of a batch, with the contract of data.Filter.TestBatch:
// it moves the accepted rows of sel to its front and returns how many
// there are, and on an error it returns the first failing row and the
// accepted rows before it. filter may overwrite all of sel.
type node interface {
	rowTest
	filter(b data.Batch, sel []int32, f *scanFilter) (int, int32, error)
}

// Outcomes of a three-way comparison, as bits, so a comparison operator
// is the set of outcomes it accepts.
const (
	less uint8 = 1 << iota
	equal
	greater
)

// accepts maps each comparison operator to the outcomes it accepts.
var accepts = map[BinaryOp]uint8{
	OpEq: equal, OpNe: less | greater,
	OpLt: less, OpLe: less | equal,
	OpGt: greater, OpGe: greater | equal,
}

// mirror swaps less and greater, turning lit OP col into col OP' lit.
func mirror(set uint8) uint8 { return set&equal | set&less<<2 | set&greater>>2 }

// order compares two values of one kind as data.Compare does: neither
// less nor greater is equal, so a float NaN compares equal to
// everything.
func order[T int64 | float64 | string](a, b T) uint8 {
	switch {
	case a < b:
		return less
	case a > b:
		return greater
	}
	return equal
}

// number is a numeric literal ready to be compared with column values.
type number struct {
	isInt bool
	i     int64
	f     float64
}

func newNumber(v data.Value) number {
	return number{isInt: v.Kind() == data.KindInt, i: v.AsInt(), f: v.AsFloat()}
}

// order compares the numeric value v with n as data.Compare(v, n) does:
// two INTs as int64, any other pair as float64.
func (n number) order(v data.Value) uint8 {
	if n.isInt && v.Kind() == data.KindInt {
		return order(v.AsInt(), n.i)
	}
	return order(v.AsFloat(), n.f)
}

// literal returns the value of a constant operand. A Neg of a numeric
// literal counts, since that is how a negative number can be spelled;
// it is evaluated once, here, through its own Eval.
func literal(e Expr) (data.Value, bool) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, true
	case *Neg:
		if v, ok := literal(x.X); ok && v.IsNumeric() {
			nv, err := x.Eval(data.Record{})
			return nv, err == nil
		}
	}
	return data.Null(), false
}

// columnLiteral reports whether a is a bound column and b a literal.
func columnLiteral(a, b Expr) (int, data.Value, bool) {
	c, ok := a.(*BoundColumn)
	if !ok {
		return 0, data.Null(), false
	}
	v, ok := literal(b)
	return c.Index, v, ok
}

// compile turns a predicate bound to schema into a node whose row test
// tests a record as EvalBool does, error text included, without
// allocating. It specialises a column compared with a literal, in
// either order, under = != < <= > >=; BETWEEN with literal bounds; and
// AND, OR and NOT. A specialised comparison's row test compares numeric
// with numeric and string with string in place, by data.Compare's
// rules; every other pair of kinds, NULL included (which compares
// false), and every other node are tested through EvalBool on that
// node.
//
// The batch test has kernels for the shapes of a real scan's range
// predicates, picked once from the column's declared kind and the
// literals' kinds: a comparison or BETWEEN of an INT column with INT
// literals runs as int64, of a FLOAT column with numeric literals as
// float64, and AND passes its right operand only the rows its left one
// accepted. Those kinds cannot fail, so the kernels test a whole column
// vector with no error path. Every other node (OR, NOT, IN, LIKE, a
// comparison of a STRING or undeclared column, or of an INT column
// with a FLOAT literal) runs its row test row by row over a record
// filled with its columns.
func compile(e Expr, schema *data.Schema) node {
	switch x := e.(type) {
	case *Binary:
		switch x.Op {
		case OpAnd:
			return &and{l: compile(x.L, schema), r: compile(x.R, schema)}
		case OpOr:
			return newRowNode(e, &or{l: compile(x.L, schema), r: compile(x.R, schema)})
		}
		if set, ok := accepts[x.Op]; ok {
			if col, v, ok := columnLiteral(x.L, x.R); ok {
				n := newCmp(e, schema, col, set, v)
				return &n
			}
			if col, v, ok := columnLiteral(x.R, x.L); ok {
				n := newCmp(e, schema, col, mirror(set), v)
				return &n
			}
		}
	case *Not:
		return newRowNode(e, &not{x: compile(x.X, schema)})
	case *Between:
		if col, ok := x.X.(*BoundColumn); ok {
			lo, okLo := literal(x.Lo)
			hi, okHi := literal(x.Hi)
			if okLo && okHi {
				return &between{
					lower: newCmp(e, schema, col.Index, greater|equal, lo),
					upper: newCmp(e, schema, col.Index, less|equal, hi),
				}
			}
		}
	}
	return newRowNode(e, interp{e})
}

// domain is how a batch kernel compares a declared column with a
// literal.
type domain uint8

const (
	// rowWise: no kernel; the comparison is tested row by row.
	rowWise domain = iota
	// ints: an INT column with an INT literal, as int64.
	ints
	// floats: a FLOAT column with a numeric literal, as float64.
	floats
)

func domainOf(col data.Kind, lit data.Value) domain {
	switch {
	case col == data.KindInt && lit.Kind() == data.KindInt:
		return ints
	case col == data.KindFloat && lit.IsNumeric():
		return floats
	}
	return rowWise
}

// cmp tests a column against a literal, accepting the outcomes in set.
type cmp struct {
	node Expr // the comparison it replaces
	col  [1]int
	set  uint8
	lit  data.Value
	num  number // lit, when numeric
	dom  domain
}

func newCmp(node Expr, schema *data.Schema, col int, set uint8, lit data.Value) cmp {
	return cmp{node: node, col: [1]int{col}, set: set, lit: lit, num: newNumber(lit), dom: domainOf(schema.Kind(col), lit)}
}

// compare compares x with the literal when their kinds have an order,
// numeric with numeric or string with string; ok is false otherwise.
func (c *cmp) compare(x data.Value) (accepted, ok bool) {
	switch {
	case c.lit.IsNumeric() && x.IsNumeric():
		return c.set&c.num.order(x) != 0, true
	case c.lit.Kind() == data.KindString && x.Kind() == data.KindString:
		return c.set&order(x.AsString(), c.lit.AsString()) != 0, true
	}
	return false, false
}

func (c *cmp) test(rec data.Record) (bool, error) {
	if ok, typed := c.compare(rec.At(c.col[0])); typed {
		return ok, nil
	}
	return EvalBool(c.node, rec)
}

func (c *cmp) filter(b data.Batch, sel []int32, f *scanFilter) (int, int32, error) {
	switch c.dom {
	case ints:
		return keepCmp(b.Ints(c.col[0], sel), sel, c.set, c.num.i), 0, nil
	case floats:
		return keepCmp(b.Floats(c.col[0], sel), sel, c.set, c.num.f), 0, nil
	}
	return f.rowWise(c, c.col[:], b, sel)
}

// between tests lower <= column <= upper: its two bounds are the
// comparisons column >= lower and column <= upper.
type between struct{ lower, upper cmp }

func (t *between) test(rec data.Record) (bool, error) {
	x := rec.At(t.lower.col[0])
	lo, typedLo := t.lower.compare(x)
	hi, typedHi := t.upper.compare(x)
	if typedLo && typedHi {
		return lo && hi, nil
	}
	return EvalBool(t.lower.node, rec)
}

func (t *between) filter(b data.Batch, sel []int32, f *scanFilter) (int, int32, error) {
	lo, hi := &t.lower, &t.upper
	switch {
	case lo.dom == ints && hi.dom == ints:
		return keepRange(b.Ints(lo.col[0], sel), sel, lo.num.i, hi.num.i), 0, nil
	case lo.dom == floats && hi.dom == floats:
		return keepRange(b.Floats(lo.col[0], sel), sel, lo.num.f, hi.num.f), 0, nil
	}
	return f.rowWise(t, lo.col[:], b, sel)
}

// and is AND, which stops at a false left operand. Its batch test
// passes the right operand only the rows the left one accepted.
type and struct{ l, r node }

func (t *and) test(rec data.Record) (bool, error) {
	b, err := t.l.test(rec)
	if err != nil || !b {
		return false, err
	}
	return t.r.test(rec)
}

func (t *and) filter(b data.Batch, sel []int32, f *scanFilter) (int, int32, error) {
	n, at, err := t.l.filter(b, sel, f)
	n, rat, rerr := t.r.filter(b, sel[:n], f)
	if rerr != nil {
		return n, rat, rerr // rat < at: the right operand saw only rows before it
	}
	return n, at, err
}

// or is OR, which stops at a true left operand.
type or struct{ l, r rowTest }

func (t *or) test(rec data.Record) (bool, error) {
	b, err := t.l.test(rec)
	if err != nil || b {
		return b, err
	}
	return t.r.test(rec)
}

// not negates its operand.
type not struct{ x rowTest }

func (t *not) test(rec data.Record) (bool, error) {
	b, err := t.x.test(rec)
	if err != nil {
		return false, err
	}
	return !b, nil
}

// interp is a node compile does not specialise: EvalBool.
type interp struct{ e Expr }

func (t interp) test(rec data.Record) (bool, error) { return EvalBool(t.e, rec) }

// rowNode is a node without a batch kernel: its batch test runs its row
// test on each row, over a record filled with the columns cols it reads.
type rowNode struct {
	rowTest
	cols []int
}

// newRowNode is t, the row test of e, as a node.
func newRowNode(e Expr, t rowTest) *rowNode {
	n := &rowNode{rowTest: t}
	walk(e, func(e Expr) {
		if c, ok := e.(*BoundColumn); ok {
			n.cols = append(n.cols, c.Index)
		}
	})
	return n
}

func (t *rowNode) filter(b data.Batch, sel []int32, f *scanFilter) (int, int32, error) {
	return f.rowWise(t.rowTest, t.cols, b, sel)
}

// b2i is 1 for true, 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// keepCmp keeps the rows r of sel whose v[r] compares with lit, as
// order does, to an outcome in set.
func keepCmp[T int64 | float64](v []T, sel []int32, set uint8, lit T) int {
	// Indexed by b2i(x < lit) | b2i(x > lit)<<1.
	var keep [3]int
	keep[0], keep[1], keep[2] = b2i(set&equal != 0), b2i(set&less != 0), b2i(set&greater != 0)
	n := 0
	for _, r := range sel {
		x := v[r]
		sel[n] = r
		n += keep[b2i(x < lit)|b2i(x > lit)<<1]
	}
	return n
}

// keepRange keeps the rows r of sel with lo <= v[r] <= hi, as order
// compares.
func keepRange[T int64 | float64](v []T, sel []int32, lo, hi T) int {
	n := 0
	for _, r := range sel {
		x := v[r]
		sel[n] = r
		n += 1 - (b2i(x < lo) | b2i(x > hi))
	}
	return n
}

// scanFilter is the data.Filter ScanFilter hands a FilterSource: a
// compiled predicate and the scratch record its row-wise batch tests
// fill. It is pooled, so a scan allocates no buffers.
type scanFilter struct {
	root node
	vals []data.Value // the row-wise record's values
	rec  data.Record
}

var filterPool = sync.Pool{New: func() any { return new(scanFilter) }}

// newScanFilter takes a pooled filter for root, compiled against schema.
func newScanFilter(root node, schema *data.Schema) *scanFilter {
	f := filterPool.Get().(*scanFilter)
	f.root = root
	if len(f.vals) < schema.Len() {
		f.vals = make([]data.Value, schema.Len())
	}
	f.rec = data.NewRecord(schema, f.vals[:schema.Len()])
	return f
}

// release returns f to the pool.
func (f *scanFilter) release() {
	f.root, f.rec = nil, data.Record{}
	filterPool.Put(f)
}

// TestRow implements data.Filter.
func (f *scanFilter) TestRow(rec data.Record) (bool, error) { return f.root.test(rec) }

// TestBatch implements data.Filter.
func (f *scanFilter) TestBatch(b data.Batch, sel []int32) (int, int32, error) {
	return f.root.filter(b, sel, f)
}

// rowWise runs t on each row of sel, over the scratch record filled
// with the columns cols.
func (f *scanFilter) rowWise(t rowTest, cols []int, b data.Batch, sel []int32) (int, int32, error) {
	k := 0
	for _, r := range sel {
		b.Fill(r, cols, f.vals)
		ok, err := t.test(f.rec)
		if err != nil {
			return k, r, err
		}
		if ok {
			sel[k] = r
			k++
		}
	}
	return k, 0, nil
}
