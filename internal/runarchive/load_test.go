package runarchive

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"math/rand"
	"strings"
	"testing"

	"dynamicmr/internal/trace"
	"dynamicmr/internal/tsdb"
)

// ndjsonRecords splits an archive into its records' kinds and payloads.
func ndjsonRecords(t *testing.T, archive []byte) (kinds, payloads []string) {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(zr)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, `{"t":"`)
		kind, payload, ok2 := strings.Cut(rest, `","d":`)
		if !ok || !ok2 || !strings.HasSuffix(payload, "}") {
			t.Fatalf("record line not in Write's shape: %.80s", line)
		}
		kinds = append(kinds, kind)
		payloads = append(payloads, strings.TrimSuffix(payload, "}"))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return kinds, payloads
}

func gzipLines(lines []string) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	for _, l := range lines {
		zw.Write([]byte(l + "\n"))
	}
	zw.Close()
	return buf.Bytes()
}

// TestLoadRecordShapes rewrites every record of an archive that holds
// each record kind into shapes Write never produces but Load accepts —
// "d" before "t", keys Load ignores around them, upper-case keys, a
// repeated "t" before the payload or "d" before the kind, null and
// unknown-kind records after the manifest — and requires each loaded
// archive to write the original bytes again. A "t" or "d" key after a
// payload Load has already decoded is refused.
func TestLoadRecordShapes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tr, vt := randomTracer(r, 4)
	a, err := New(Source{Label: "shapes", Tracer: tr, VirtualTimeS: vt,
		Queries: flushArchive(t, 20).Queries,
		Series: &tsdb.Dump{Schema: tsdb.SchemaVersion, VirtualTimeS: vt, IntervalS: 5,
			Series: []tsdb.SeriesDump{{Name: "cluster.running_jobs", Points: []tsdb.Point{{T: 5, V: 1}}}}},
		Alerts: &tsdb.AlertsDump{Schema: tsdb.AlertsSchemaVersion, VirtualTimeS: vt,
			Events: []tsdb.AlertEvent{{Rule: "r", State: tsdb.StateFiring, TimeS: 4, Value: 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := rewrite(t, a)
	kinds, payloads := ndjsonRecords(t, want)
	seen := map[string]bool{}
	for _, k := range kinds {
		seen[k] = true
	}
	for _, k := range []string{recManifest, recSpan, recDecision, recCounters, recDiagnosis, recQueries, recSeries, recAlerts} {
		if !seen[k] {
			t.Fatalf("the archive has no %s record", k)
		}
	}

	shapes := map[string]func(kind, d string) string{
		"d first":      func(k, d string) string { return `{"d":` + d + `,"t":"` + k + `"}` },
		"ignored keys": func(k, d string) string { return `{"x":{"t":"span"},"t":"` + k + `","y":[1],"d":` + d + `,"z":null}` },
		"upper case":   func(k, d string) string { return `{"T":"` + k + `","D":` + d + `}` },
		"t repeated":   func(k, d string) string { return `{"t":"span","t":"` + k + `","d":` + d + `}` },
		"d repeated":   func(k, d string) string { return `{"d":{"bogus":true},"d":` + d + `,"t":"` + k + `"}` },
	}
	for name, shape := range shapes {
		lines := make([]string, len(kinds))
		for i := range kinds {
			lines[i] = shape(kinds[i], payloads[i])
		}
		if name == "d first" {
			lines = append(lines[:1:1], append([]string{"null", `{"t":"future","d":[1,2]}`, `{"d":{"a":1},"t":"future"}`}, lines[1:]...)...)
		}
		b, err := Load(bytes.NewReader(gzipLines(lines)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := rewrite(t, b); !bytes.Equal(got, want) {
			t.Fatalf("%s: the loaded archive writes other bytes (%d vs %d)", name, len(got), len(want))
		}
	}

	span := -1
	for i, k := range kinds {
		if k == recSpan {
			span = i
			break
		}
	}
	for _, late := range []string{`,"t":"span"`, `,"d":` + payloads[span]} {
		lines := append([]string(nil), kinds...)
		for i := range lines {
			lines[i] = `{"t":"` + kinds[i] + `","d":` + payloads[i] + `}`
		}
		lines[span] = `{"t":"span","d":` + payloads[span] + late + `}`
		if _, err := Load(bytes.NewReader(gzipLines(lines))); err == nil {
			t.Fatalf("Load accepted a record with %s after its decoded payload", late[1:])
		}
	}
}

// TestLoadSkipsOlderGaugesRecord: archives written before the tracer's
// gauge registry went carry a "gauges" record after the counters. Load
// must accept one, and the loaded archive must write the bytes of the
// same archive without it.
func TestLoadSkipsOlderGaugesRecord(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tr, vt := randomTracer(r, 3)
	tr.Inc(trace.CounterHeartbeats, 1)
	a, err := New(Source{Label: "older", Tracer: tr, VirtualTimeS: vt})
	if err != nil {
		t.Fatal(err)
	}
	want := rewrite(t, a)
	kinds, payloads := ndjsonRecords(t, want)
	var lines []string
	for i, k := range kinds {
		lines = append(lines, `{"t":"`+k+`","d":`+payloads[i]+`}`)
		if k == recCounters {
			lines = append(lines, `{"t":"gauges","d":{"cluster.cpu_util_pct":{"last":12.5,"min":0,"max":40,"sum":52.5,"count":3}}}`)
		}
	}
	if len(lines) != len(kinds)+1 {
		t.Fatal("the archive has no counters record to follow")
	}
	b, err := Load(bytes.NewReader(gzipLines(lines)))
	if err != nil {
		t.Fatalf("archive with a gauges record rejected: %v", err)
	}
	if got := rewrite(t, b); !bytes.Equal(got, want) {
		t.Fatalf("the loaded archive writes other bytes (%d vs %d)", len(got), len(want))
	}
}
