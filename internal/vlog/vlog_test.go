package vlog

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// TestVirtualClockStamping: every record carries vt from the supplied
// clock and no wall-clock "time" field.
func TestVirtualClockStamping(t *testing.T) {
	var buf bytes.Buffer
	now := 0.0
	log := New(&buf, slog.LevelInfo, func() float64 { return now })

	now = 12.5
	log.Info("first", slog.Int(KeyJob, 3))
	now = 99.25
	log.Warn("second")

	sc := bufio.NewScanner(&buf)
	var records []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line not JSON: %v: %s", err, sc.Text())
		}
		records = append(records, m)
	}
	if len(records) != 2 {
		t.Fatalf("want 2 NDJSON records, got %d", len(records))
	}
	if vt := records[0][KeyVT]; vt != 12.5 {
		t.Errorf("record 0 vt: want 12.5, got %v", vt)
	}
	if vt := records[1][KeyVT]; vt != 99.25 {
		t.Errorf("record 1 vt: want 99.25, got %v", vt)
	}
	for i, m := range records {
		if _, ok := m[slog.TimeKey]; ok {
			t.Errorf("record %d still carries a wall-clock %q field: %v", i, slog.TimeKey, m)
		}
	}
	if records[0][KeyJob] != float64(3) {
		t.Errorf("job attr lost: %v", records[0])
	}
	if records[0][slog.MessageKey] != "first" {
		t.Errorf("message lost: %v", records[0])
	}
}

// TestLevelGating: records below the handler level produce no output,
// and Enabled reports it so call sites can skip attribute assembly.
func TestLevelGating(t *testing.T) {
	var buf bytes.Buffer
	log := New(&buf, slog.LevelWarn, nil)
	if log.Enabled(context.Background(), slog.LevelInfo) {
		t.Error("info must be disabled at warn level")
	}
	log.Debug("nope")
	log.Info("nope")
	log.Warn("yes")
	lines := strings.Count(buf.String(), "\n")
	if lines != 1 {
		t.Errorf("want exactly 1 record, got %d: %s", lines, buf.String())
	}
}

// TestNop: the shared discard logger reports disabled at every level.
func TestNop(t *testing.T) {
	for _, lvl := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if Nop().Enabled(context.Background(), lvl) {
			t.Errorf("Nop must be disabled at %v", lvl)
		}
	}
	if Or(nil) != Nop() {
		t.Error("Or(nil) must return the shared Nop logger")
	}
	custom := slog.New(nopHandler{})
	if Or(custom) != custom {
		t.Error("Or must pass through a non-nil logger")
	}
}

// TestWithAttrs: attrs bound via With survive the vt re-issue.
func TestWithAttrs(t *testing.T) {
	var buf bytes.Buffer
	log := New(&buf, slog.LevelInfo, func() float64 { return 7 }).
		With(slog.String(KeyComponent, "jobtracker"))
	log.Info("msg", slog.Int(KeyJob, 1))
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m[KeyComponent] != "jobtracker" {
		t.Errorf("With attr lost: %v", m)
	}
	if m[KeyVT] != float64(7) {
		t.Errorf("vt lost under With: %v", m)
	}
}

// TestParseLevel covers the flag surface.
func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"":      slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel must reject unknown levels")
	}
}

// TestLockWriterConcurrent: records from concurrent loggers sharing
// one sink never interleave mid-line.
func TestLockWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w := LockWriter(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		log := New(w, slog.LevelInfo, func() float64 { return float64(g) })
		wg.Add(1)
		go func(log *slog.Logger) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				log.Info("concurrent", slog.Int("i", i), slog.String("pad", strings.Repeat("x", 64)))
			}
		}(log)
	}
	wg.Wait()
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("interleaved/corrupt line %d: %v", n, err)
		}
		n++
	}
	if n != 8*50 {
		t.Errorf("want 400 records, got %d", n)
	}
}
