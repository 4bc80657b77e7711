package data

import (
	"fmt"
	"slices"
	"strings"
)

// Schema names and orders the columns of a record and declares each
// column's kind (KindAny when undeclared). Schemas are immutable after
// construction and safe for concurrent use.
type Schema struct {
	cols  []string
	kinds []Kind
	index map[string]int
	// from and pos are set on a schema built by Project: column i is
	// column pos[i] of from, so projecting a record of from copies by
	// position.
	from *Schema
	pos  []int
}

// Field is one column of a typed schema: its name and declared kind.
type Field struct {
	Name string
	Kind Kind
}

// NewSchema builds a schema from column names, declaring no kinds.
// Names are matched case-insensitively (upper-cased internally, as in
// Hive).
func NewSchema(cols ...string) *Schema {
	fields := make([]Field, len(cols))
	for i, c := range cols {
		fields[i] = Field{Name: c, Kind: KindAny}
	}
	return NewTypedSchema(fields...)
}

// NewTypedSchema builds a schema whose columns declare the fields'
// kinds. A source of the schema must yield, in each column not declared
// KindAny, only values of that kind.
func NewTypedSchema(fields ...Field) *Schema {
	s := &Schema{index: make(map[string]int, len(fields))}
	for _, f := range fields {
		u := strings.ToUpper(f.Name)
		if _, dup := s.index[u]; dup {
			panic(fmt.Sprintf("data: duplicate column %q", f.Name))
		}
		s.index[u] = len(s.cols)
		s.cols = append(s.cols, u)
		s.kinds = append(s.kinds, f.Kind)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Columns returns the column names in order. The caller must not modify
// the returned slice.
func (s *Schema) Columns() []string { return s.cols }

// Kind returns the declared kind of column i: KindAny when undeclared.
func (s *Schema) Kind(i int) Kind { return s.kinds[i] }

// Index returns the position of a column (case-insensitive) and whether
// it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[strings.ToUpper(name)]
	return i, ok
}

// Has reports whether the schema contains the column.
func (s *Schema) Has(name string) bool {
	_, ok := s.Index(name)
	return ok
}

// Project returns a new schema with the given columns, which must exist
// and be distinct. Each keeps its declared kind.
func (s *Schema) Project(cols ...string) (*Schema, error) {
	pos := make([]int, len(cols))
	fields := make([]Field, len(cols))
	for i, c := range cols {
		j, ok := s.Index(c)
		if !ok {
			return nil, fmt.Errorf("data: unknown column %q", c)
		}
		if slices.Contains(pos[:i], j) {
			return nil, fmt.Errorf("data: duplicate column %q", c)
		}
		pos[i] = j
		fields[i] = Field{Name: c, Kind: s.kinds[j]}
	}
	p := NewTypedSchema(fields...)
	p.from, p.pos = s, pos
	return p, nil
}

// Positions returns, for a schema that src.Project made, the position
// in src of each of its columns, and false for any other schema. The
// caller must not modify the returned slice.
func (s *Schema) Positions(src *Schema) ([]int, bool) {
	if s.from == nil || s.from != src {
		return nil, false
	}
	return s.pos, true
}

// Record is a flat row: values positionally aligned with a Schema.
type Record struct {
	schema *Schema
	vals   []Value
}

// NewRecord pairs a schema with values. The value count must match.
func NewRecord(schema *Schema, vals []Value) Record {
	if len(vals) != schema.Len() {
		panic(fmt.Sprintf("data: record has %d values for %d columns", len(vals), schema.Len()))
	}
	return Record{schema: schema, vals: vals}
}

// Schema returns the record's schema.
func (r Record) Schema() *Schema { return r.schema }

// Len returns the number of fields.
func (r Record) Len() int { return len(r.vals) }

// At returns the value at position i.
func (r Record) At(i int) Value { return r.vals[i] }

// Get returns the value of the named column.
func (r Record) Get(col string) (Value, bool) {
	i, ok := r.schema.Index(col)
	if !ok {
		return Null(), false
	}
	return r.vals[i], true
}

// MustGet returns the value of the named column, panicking if absent.
func (r Record) MustGet(col string) Value {
	v, ok := r.Get(col)
	if !ok {
		panic(fmt.Sprintf("data: record has no column %q", col))
	}
	return v
}

// Project returns a record containing only the given columns, bound to
// the provided projected schema (obtained from Schema.Project). A
// record of the schema proj was projected from is copied by position;
// any other is matched by name.
func (r Record) Project(proj *Schema) Record {
	vals := make([]Value, proj.Len())
	if pos, ok := proj.Positions(r.schema); ok {
		for i, j := range pos {
			vals[i] = r.vals[j]
		}
	} else {
		for i, c := range proj.cols {
			vals[i] = r.MustGet(c)
		}
	}
	return Record{schema: proj, vals: vals}
}

// EncodedSize returns the record's size in bytes in the pipe-delimited
// text representation (fields + separators + newline), which is what the
// DFS charges for I/O.
func (r Record) EncodedSize() int {
	n := len(r.vals) // len-1 separators + newline
	for _, v := range r.vals {
		n += v.EncodedSize()
	}
	return n
}

// String renders the record as a pipe-delimited line.
func (r Record) String() string {
	var b strings.Builder
	for i, v := range r.vals {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// Clone returns a deep copy whose value slice is independent.
func (r Record) Clone() Record {
	vals := make([]Value, len(r.vals))
	copy(vals, r.vals)
	return Record{schema: r.schema, vals: vals}
}

// With returns a copy of the record with the named column replaced.
// The original record is unchanged.
func (r Record) With(col string, v Value) Record {
	i, ok := r.schema.Index(col)
	if !ok {
		panic(fmt.Sprintf("data: record has no column %q", col))
	}
	c := r.Clone()
	c.vals[i] = v
	return c
}
