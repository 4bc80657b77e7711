package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynamicmr/internal/qstats"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/tsdb"
)

// freePort reserves an ephemeral localhost port for the serve loop.
// The listener is closed before serveMain rebinds it; the window is
// tiny and a collision fails loudly, not silently.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestServeSignalFlushesSinks: a SIGINT landing mid-run must let the
// current query finish and flush the run archive schema-complete — a
// valid file, not a torn write — whose qstats dump, alert dump (with
// the SLO rule that fired during the run) and HTML report render
// complete.
func TestServeSignalFlushesSinks(t *testing.T) {
	dir := t.TempDir()
	rulesPath := filepath.Join(dir, "rules.json")
	archivePath := filepath.Join(dir, "run.archive.gz")
	// A 1ms latency objective every query breaches, so the rule fires
	// deterministically once a collection tick sees a finished query.
	rules := `{"rules": [{"name": "latency-slo", "kind": "slo_burn", "objective_s": 0.001, "severity": "page"}]}`
	if err := os.WriteFile(rulesPath, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}

	addr := freePort(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveMain([]string{
			"-addr", addr,
			"-rows", "400000", "-k", "200", "-pace-ms", "10",
			"-alert-rules", rulesPath,
			"-archive-out", archivePath,
		})
	}()

	// Wait until the loop has finished queries AND the alert layer has
	// fired, so the signal provably lands mid-run.
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("serve loop never reached a fired alert")
		}
		var dump qstats.Dump
		var alerts tsdb.AlertsDump
		if fetchJSON(client, "http://"+addr+"/queries", &dump) == nil && dump.Finished >= 2 &&
			fetchJSON(client, "http://"+addr+"/alerts", &alerts) == nil && len(alerts.Events) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down after SIGINT")
	}

	// The archive loads, and the dumps rendered from it are
	// schema-complete.
	a, err := runarchive.LoadFile(archivePath)
	if err != nil {
		t.Fatalf("flushed archive does not load: %v", err)
	}
	if a.Alerts == nil || len(a.Alerts.Events) == 0 || a.Series == nil {
		t.Fatal("flushed archive lost the tsdb layers")
	}
	var qd qstats.Dump
	renderJSON(t, a, "qstats", &qd)
	if qd.Schema != qstats.SchemaVersion || qd.Finished < 2 {
		t.Fatalf("qstats dump: schema %q, finished %d", qd.Schema, qd.Finished)
	}
	var ad tsdb.AlertsDump
	renderJSON(t, a, "alerts", &ad)
	if ad.Schema != tsdb.AlertsSchemaVersion {
		t.Fatalf("alerts dump schema %q", ad.Schema)
	}
	fired := false
	for _, e := range ad.Events {
		if e.Rule == "latency-slo" && e.State == tsdb.StateFiring {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("alert dump has no firing event: %+v", ad.Events)
	}

	if len(a.Snapshots) == 0 {
		t.Fatal("flushed archive has no sampler snapshots")
	}
	var html strings.Builder
	if err := a.Render(&html, "report"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "Cluster utilization", "latency-slo", "</html>"} {
		if !strings.Contains(html.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// renderJSON renders one JSON view of a and decodes it into v.
func renderJSON(t *testing.T, a *runarchive.Archive, kind string, v any) {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Render(&buf, kind); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		t.Fatalf("render %s: %v", kind, err)
	}
}
