package qstats

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
)

// writeBufferSize is WriteJSON's buffer: its writes to the destination
// are this size, or one record's encoding when that is larger.
const writeBufferSize = 64 << 10

// WriteJSON writes the dump as indented JSON (the `dynmr render qstats`
// output and the /queries body, schema SchemaVersion): the bytes
// json.Encoder with SetIndent("", "  ") writes for d. It encodes one
// query record at a time through a buffered writer, so it holds one
// record's encoding however many queries the dump has. When it fails
// (a NaN or infinite float, say), a prefix of the output may already
// have been written; json.Encoder, which encoded the whole dump before
// writing, wrote nothing.
func (d Dump) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, writeBufferSize)
	if err := d.stream(bw, true); err != nil {
		return err
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteCompactJSON writes the bytes json.Marshal returns for d (the run
// archive's qstats record), one query record at a time and in many
// small writes, so w should buffer. As with WriteJSON, a failure may
// leave a prefix written.
func (d *Dump) WriteCompactJSON(w io.Writer) error { return d.stream(w, false) }

// stream is the one framing of a Dump for both writers: the header
// fields, then the in_flight and queries lists a record at a time, in
// the struct's field order. Indented, each value is indented at the
// depth it sits at, which gives json.Indent's bytes for the whole
// document (without the newline json.Encoder appends). A field added
// to Dump must be added here too; TestQStatsStreamMatchesReflection
// fails until it is.
func (d *Dump) stream(w io.Writer, indent bool) error {
	s := &jsonStream{w: w, indent: indent}
	s.enc = json.NewEncoder(&s.raw)
	s.put("{")
	s.field("schema", d.Schema)
	s.field("virtual_time_s", d.VirtualTimeS)
	s.field("wall_time_s", d.WallTimeS)
	s.field("queries_started", d.Started)
	s.field("queries_finished", d.Finished)
	s.field("queries_failed", d.Failed)
	s.field("policies", d.Policies)
	s.records("in_flight", d.InFlight)
	s.records("queries", d.Queries)
	s.newline(0)
	s.put("}")
	return s.err
}

// jsonStream writes a JSON object to w one value at a time. raw holds
// the value being written and ind its indented form; both are reused,
// so they grow to the largest single value, not to the document.
type jsonStream struct {
	w        io.Writer
	indent   bool
	enc      *json.Encoder // encodes into raw, escaping HTML as json.Marshal does
	raw, ind bytes.Buffer
	keys     int // keys written so far
	err      error
}

// newlines holds a line break followed by the indentation of depths 0-2.
const newlines = "\n    "

func (s *jsonStream) put(p string) {
	if s.err == nil {
		_, s.err = io.WriteString(s.w, p)
	}
}

// newline starts an indented line at depth; compact output has none.
func (s *jsonStream) newline(depth int) {
	if s.indent {
		s.put(newlines[:1+2*depth])
	}
}

// key writes a top-level object key, after a comma unless it is the
// first.
func (s *jsonStream) key(name string) {
	if s.keys > 0 {
		s.put(",")
	}
	s.keys++
	s.newline(1)
	s.put(`"` + name + `":`)
	if s.indent {
		s.put(" ")
	}
}

func (s *jsonStream) field(name string, v any) {
	s.key(name)
	s.value(v, 1)
}

// records writes a list of query records as the value of key name: null
// for a nil slice, as json.Marshal does, and otherwise one record at a
// time.
func (s *jsonStream) records(name string, recs []QueryRecord) {
	s.key(name)
	if recs == nil {
		s.put("null")
		return
	}
	s.put("[")
	for i := range recs {
		if i > 0 {
			s.put(",")
		}
		s.newline(2)
		s.value(&recs[i], 2)
	}
	if len(recs) > 0 {
		s.newline(1)
	}
	s.put("]")
}

// value writes v's encoding, indented for a value whose first line sits
// at depth.
func (s *jsonStream) value(v any, depth int) {
	if s.err != nil {
		return
	}
	s.raw.Reset()
	if s.err = s.enc.Encode(v); s.err != nil {
		return
	}
	b := s.raw.Bytes()
	b = b[:len(b)-1] // Encode ends every value with a newline
	if s.indent {
		s.ind.Reset()
		if s.err = json.Indent(&s.ind, b, newlines[1:1+2*depth], "  "); s.err != nil {
			return
		}
		b = s.ind.Bytes()
	}
	_, s.err = s.w.Write(b)
}
