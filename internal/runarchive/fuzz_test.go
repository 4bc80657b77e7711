package runarchive

import (
	"bytes"
	"compress/gzip"
	"io"
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
