package runarchive

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynamicmr/internal/diag"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/trace"
)

// awkwardSQL holds query texts that encoding/json escapes or must pass
// through unchanged: HTML characters, quotes, U+2028 and non-ASCII.
var awkwardSQL = []string{
	"SELECT L_ORDERKEY FROM lineitem WHERE L_SHIPMODE = 'DRONE' LIMIT 1000",
	"SELECT * FROM t WHERE a < 3 AND b > 4 AND c <> 'x&y'",
	`SELECT "quoted", 'back\slash' FROM t`,
	"SELECT 1 -- line\u2028separator and \u2029 paragraph",
	"SELECT naïve, 数据, emoji 🚀 FROM t WHERE tab\t= 'nl\n'",
	"",
}

// awkwardFloat returns a float encoding/json writes in a notable form:
// exponent notation, a negative "not happened" stamp, zero, or plain.
func awkwardFloat(r *rand.Rand) float64 {
	switch r.Intn(6) {
	case 0:
		return r.Float64() * 1e-7
	case 1:
		return 1e21 * (1 + r.Float64())
	case 2:
		return -1
	case 3:
		return 0
	}
	return r.Float64() * 1e4
}

// randomQuery is query record i: its SQL, error, diagnosis and
// diag_error vary with i so that every few records cover each case.
func randomQuery(r *rand.Rand, i int, diags []diag.JobDiagnosis) qstats.QueryRecord {
	q := qstats.QueryRecord{
		ID: fmt.Sprintf("q-%06d", i+1), JobID: i, SQL: awkwardSQL[i%len(awkwardSQL)],
		User: fmt.Sprintf("u<%d>", i%3), Policy: "LA", K: r.Int63n(1e4), Dynamic: i%2 == 0,
		State:    qstats.StateOK,
		SubmitVT: awkwardFloat(r), FirstMatchVT: awkwardFloat(r), LimitHitVT: awkwardFloat(r),
		FinishVT: awkwardFloat(r), SubmitWall: awkwardFloat(r), FinishWall: awkwardFloat(r),
		LatencyVirtualS: awkwardFloat(r), LatencyWallS: awkwardFloat(r),
		SplitsTotal: r.Intn(200), RecordsRead: r.Int63n(1e9), Matches: r.Int63n(1e6),
		MapSeconds: awkwardFloat(r),
	}
	if i%4 == 1 {
		q.State, q.Error = qstats.StateFailed, "map task failed: <disk> & \"net\""
	}
	if len(diags) > 0 && i%3 != 2 {
		q.Diagnosis = &diags[i%len(diags)]
	}
	if i%3 == 2 {
		q.DiagError = "spans evicted before finish\u2028(ring full)"
	}
	return q
}

// randomDump's nil, empty and filled record lists are picked by shape,
// so shapes 0-8 cover every pair for in_flight and queries.
func randomDump(r *rand.Rand, shape int, diags []diag.JobDiagnosis) *qstats.Dump {
	list := func(pick int) []qstats.QueryRecord {
		switch pick % 3 {
		case 0:
			return nil
		case 1:
			return []qstats.QueryRecord{}
		}
		recs := make([]qstats.QueryRecord, 1+r.Intn(12))
		for i := range recs {
			recs[i] = randomQuery(r, i, diags)
		}
		return recs
	}
	d := &qstats.Dump{Schema: qstats.SchemaVersion, VirtualTimeS: awkwardFloat(r),
		WallTimeS: awkwardFloat(r), Started: r.Int63n(1e6), Finished: r.Int63n(1e6), Failed: r.Int63n(10)}
	if shape%2 == 1 {
		d.Policies = []qstats.PolicyLatency{{Policy: "LA", Finished: 3, WallP50S: awkwardFloat(r),
			VirtualMaxS: awkwardFloat(r)}, {Policy: "C&<Hadoop>"}}
	}
	d.InFlight = list(shape)
	d.Queries = list(shape / 3)
	return d
}

// longDiagnoses returns n diagnoses of 32-node critical paths, the
// length of a sampling query's in the observed benchmark workload.
func longDiagnoses(n int) []diag.JobDiagnosis {
	out := make([]diag.JobDiagnosis, n)
	for j := range out {
		d := &out[j]
		d.JobID, d.Outcome, d.FinishS, d.MakespanS = j, "ok", 32, 32
		for p := 0; p < 32; p++ {
			d.CriticalPath = append(d.CriticalPath, diag.PathNode{Kind: diag.KindMapCPU,
				Start: float64(p), End: float64(p + 1), Task: p, Attempt: 1, Node: p % 10})
		}
		d.Breakdown.MapComputeS = 32
	}
	return out
}

// flushArchive is an archive whose qstats record is the size of the
// observed benchmark workload's at its flush: n queries, each diagnosed
// with a 32-node critical path. At n = 4,000 that record is 13 MB of
// JSON; the rest of the archive is small.
func flushArchive(tb testing.TB, n int) *Archive {
	r := rand.New(rand.NewSource(1))
	tr, vt := randomTracer(r, 2)
	diags := longDiagnoses(64)
	d := &qstats.Dump{Schema: qstats.SchemaVersion, VirtualTimeS: vt, Started: int64(n),
		Finished: int64(n), Policies: []qstats.PolicyLatency{{Policy: "LA", Finished: int64(n)}}}
	for i := 0; i < n; i++ {
		q := randomQuery(r, i, diags)
		q.Diagnosis = &diags[i%len(diags)]
		d.Queries = append(d.Queries, q)
	}
	a, err := New(Source{Label: "flush", Tracer: tr, Queries: d, VirtualTimeS: vt})
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// archiveLine returns the archive's record line of the given kind.
func archiveLine(t *testing.T, archive []byte, kind string) string {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(zr)
	prefix := `{"t":"` + kind + `",`
	for {
		line, err := br.ReadString('\n')
		if len(line) >= len(prefix) && line[:len(prefix)] == prefix {
			return line
		}
		if err != nil {
			t.Fatalf("no %s record in the archive (%v)", kind, err)
		}
	}
}

// TestQStatsStreamMatchesReflection is the byte-identity property of
// the streamed qstats encodings over randomized dumps: Dump.WriteJSON
// equals json.Encoder with SetIndent("", "  "), the archive's qstats
// line equals the json.Marshal record, and the dump survives Load.
func TestQStatsStreamMatchesReflection(t *testing.T) {
	for seed := 0; seed < 36; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		tr, vt := randomTracer(r, 1+r.Intn(4))
		diags := diag.FromTracer(tr).Jobs
		if seed%4 == 3 {
			diags = nil // no record carries a diagnosis
		}
		d := randomDump(r, seed, diags)

		var got, want bytes.Buffer
		if err := d.WriteJSON(&got); err != nil {
			t.Fatalf("seed %d: WriteJSON: %v", seed, err)
		}
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("seed %d: WriteJSON differs from json.Encoder:\n got %s\nwant %s", seed, got.String(), want.String())
		}

		a, err := New(Source{Label: "stream", Tracer: tr, Queries: d, VirtualTimeS: vt})
		if err != nil {
			t.Fatal(err)
		}
		var archive bytes.Buffer
		if err := a.Write(&archive); err != nil {
			t.Fatalf("seed %d: Write: %v", seed, err)
		}
		payload, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		wantLine := `{"t":"qstats","d":` + string(payload) + "}\n"
		if line := archiveLine(t, archive.Bytes(), recQueries); line != wantLine {
			t.Fatalf("seed %d: archive qstats line differs from json.Marshal:\n got %s\nwant %s", seed, line, wantLine)
		}

		loaded, err := Load(bytes.NewReader(archive.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: Load: %v", seed, err)
		}
		if !reflect.DeepEqual(loaded.Queries, d) {
			t.Fatalf("seed %d: qstats dump does not round-trip\n got %+v\nwant %+v", seed, loaded.Queries, d)
		}
	}
}

// TestWriteChunksBounded pins the archive side of the streaming: over
// a 4,000-query dump, no chunk encodeStream hands to the compressor
// exceeds writeChunkSize plus one query record, where marshaling the
// dump whole put all of it in one chunk.
func TestWriteChunksBounded(t *testing.T) {
	a := flushArchive(t, 4000)
	query := 0
	for i := range a.Queries.Queries {
		b, err := json.Marshal(&a.Queries.Queries[i])
		if err != nil {
			t.Fatal(err)
		}
		query = max(query, len(b))
	}
	out := make(chan writeChunk, 2)
	free := make(chan []byte, 3)
	for i := 0; i < 3; i++ {
		free <- make([]byte, 0, writeChunkSize+4096)
	}
	go a.encodeStream(out, free)
	chunks, total, largest := 0, 0, 0
	for c := range out {
		if c.err != nil {
			t.Fatal(c.err)
		}
		chunks++
		total += len(c.b)
		largest = max(largest, len(c.b))
		free <- c.b
	}
	if limit := writeChunkSize + query; largest > limit {
		t.Errorf("largest chunk is %d bytes, want at most %d (chunk %d + one query %d); %d chunks, %d bytes",
			largest, limit, writeChunkSize, query, chunks, total)
	}
}

// TestWriteFileRemovesFailedArchive: a NaN in the last query fails the
// write after most of the stream has reached the file, and WriteFile
// removes the file instead of leaving a truncated gzip that Load would
// reject as corrupt.
func TestWriteFileRemovesFailedArchive(t *testing.T) {
	a := flushArchive(t, 4000)
	a.Queries.Queries[len(a.Queries.Queries)-1].LatencyWallS = math.NaN()
	path := filepath.Join(t.TempDir(), "run.archive.gz")
	err := a.WriteFile(path)
	var unsupported *json.UnsupportedValueError
	if !errors.As(err, &unsupported) {
		t.Fatalf("WriteFile error = %v, want a json.UnsupportedValueError", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("after a failed write, stat %s: %v; want the file removed", path, err)
	}
}

// TestNewDiagnosesItsOwnCopy: New without a diagnosis analyzes the span,
// decision and counter copies it keeps, and the report equals the one
// diag.FromTracer computes from copies of its own.
func TestNewDiagnosesItsOwnCopy(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr, vt := randomTracer(rand.New(rand.NewSource(seed)), 1+int(seed)*3)
		tr.Inc(trace.CounterScanAsync, 10)
		tr.Inc(trace.CounterScanStalls, 9) // a cluster anomaly read from the counters
		a, err := New(Source{Label: "own copy", Tracer: tr, VirtualTimeS: vt})
		if err != nil {
			t.Fatal(err)
		}
		if want := diag.FromTracer(tr); !reflect.DeepEqual(a.Diagnosis, want) {
			t.Fatalf("seed %d: New's diagnosis differs from diag.FromTracer's\n got %+v\nwant %+v", seed, a.Diagnosis, want)
		}
		if len(a.Diagnosis.ClusterAnomalies) == 0 {
			t.Fatalf("seed %d: the scan-stall counters raised no cluster anomaly", seed)
		}
	}
}

// BenchmarkArchiveWriteQueries measures Write of an archive whose
// qstats record is the size of the observed benchmark workload's flush
// (4,000 queries with diagnoses). B/op is what streaming the record
// bounds; the CI bench gate budgets it.
func BenchmarkArchiveWriteQueries(b *testing.B) {
	a := flushArchive(b, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
