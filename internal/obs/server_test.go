package obs

import (
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"dynamicmr/internal/mapreduce"
)

// Exposition-format line shapes: comments (# HELP / # TYPE) and samples
// name{labels} value.
var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|untyped)$`)
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9.e+-]+$`)
)

func TestMetricsEndpoint(t *testing.T) {
	eng, _, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 20, 300)
	s := NewSampler(jt, Config{IntervalS: 1})
	s.Start()
	srv := NewServer(s, nil, nil)

	job := jt.Submit(mapreduce.JobSpec{NewMapper: nopMapper}, mapreduce.SplitsForFile(f))
	mapreduce.RunUntilDone(eng, job, 1e6)
	eng.RunUntil(eng.Now() + 2)
	srv.Publish()

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) < 20 {
		t.Fatalf("exposition suspiciously small (%d lines):\n%s", len(lines), body)
	}
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Errorf("bad HELP line %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			if !typeRe.MatchString(line) {
				t.Errorf("bad TYPE line %q", line)
			}
		default:
			if !sampleRe.MatchString(line) {
				t.Errorf("bad sample line %q", line)
			}
		}
	}
	for _, want := range []string{
		"dynmr_map_attempts_total ",
		"dynmr_virtual_time_seconds ",
		`dynmr_node_cpu_util_pct{node="0"} `,
		`dynmr_node_map_slots_used{node="9"} `,
		"dynmr_cluster_cpu_util_pct ",
		"dynmr_cluster_disk_read_kb_s ",
		"dynmr_cluster_network_util_pct ",
		"dynmr_cluster_map_slot_pct ",
		"dynmr_cluster_reduce_slot_pct ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Families must be sorted by name: collect TYPE line names.
	var fams []string
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			fams = append(fams, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(fams); i++ {
		if fams[i] < fams[i-1] {
			t.Fatalf("families out of order: %q after %q", fams[i], fams[i-1])
		}
	}
}

func TestStatusEndpoint(t *testing.T) {
	eng, _, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 10, 200)
	s := NewSampler(jt, Config{IntervalS: 1})
	s.Start()
	srv := NewServer(s, nil, nil)
	job := jt.Submit(mapreduce.JobSpec{NewMapper: nopMapper}, mapreduce.SplitsForFile(f))
	mapreduce.RunUntilDone(eng, job, 1e6)
	srv.Publish()

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("/status status %d", rec.Code)
	}
	var payload StatusPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("bad /status JSON: %v", err)
	}
	if payload.VirtualTimeS <= 0 || payload.MapSlots != 40 || payload.Samples == 0 {
		t.Fatalf("implausible status: %+v", payload)
	}
	if payload.Latest == nil || len(payload.Latest.Nodes) != 10 {
		t.Fatal("status latest snapshot missing")
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown path status %d", rec.Code)
	}
}
