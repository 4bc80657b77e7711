package runarchive

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzLoad feeds Load hostile archives. The fuzzed bytes are the NDJSON
// stream, gzipped here so the fuzzer explores the record decoder and
// validation rather than the compressor. Load must never panic; every
// archive it accepts must render each view without error, and must
// survive Write → Load → Write byte for byte.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, ndjson []byte) {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(ndjson)
		zw.Close()
		a, err := Load(&gz)
		if err != nil {
			return
		}
		for _, kind := range RenderKinds {
			if err := a.Render(io.Discard, kind); err != nil {
				t.Fatalf("render %s of an accepted archive: %v", kind, err)
			}
		}
		first := rewrite(t, a)
		b, err := Load(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("rewritten archive does not reload: %v", err)
		}
		if second := rewrite(t, b); !bytes.Equal(first, second) {
			t.Fatal("Write → Load → Write changed the archive bytes")
		}
	})
}

func rewrite(t *testing.T, a *Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatalf("rewriting an accepted archive: %v", err)
	}
	return buf.Bytes()
}

// TestLoadAcceptsEngineMode pins backward compatibility: archives from
// runtimes that still had an engine-mode choice carry "engine_mode" in
// their manifest config. Load must accept them and keep every other
// config field. The archive is FuzzLoad's engine_mode seed.
func TestLoadAcceptsEngineMode(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzLoad/engine_mode")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	ndjson, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("corpus entry: %v", err)
	}
	if !strings.Contains(ndjson, `"engine_mode":"memory"`) {
		t.Fatal("seed no longer carries an engine_mode field")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(ndjson))
	zw.Close()
	a, err := Load(&gz)
	if err != nil {
		t.Fatalf("archive with engine_mode rejected: %v", err)
	}
	want := RunConfig{Policy: "LA", InputPath: "skip", ScanWorkers: 4, Seed: 7,
		GitRev: "abc123", Params: map[string]string{"figure": "6"}}
	if !reflect.DeepEqual(a.Manifest.Config, want) {
		t.Fatalf("config = %+v, want %+v", a.Manifest.Config, want)
	}
}
