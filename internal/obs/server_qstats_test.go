package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"dynamicmr/internal/data"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/tsdb"
)

func echoMapper(*mapreduce.JobConf) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(rec data.Record, c *mapreduce.Collector) error {
		c.Emit("k", rec)
		return nil
	})
}

func TestQueriesAndLiveEndpoints(t *testing.T) {
	eng, _, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 8, 100)
	s := NewSampler(jt, Config{IntervalS: 1})
	s.Start()
	reg := qstats.NewRegistry(jt)
	srv := NewServer(s, reg, nil)

	submit := func(sql string) (*mapreduce.Job, string) {
		id := reg.AllocID()
		conf := mapreduce.NewJobConf()
		conf.SetInt(mapreduce.ConfSampleSize, 50)
		conf.Set(mapreduce.ConfDynamicPolicy, "LA")
		conf.Set(mapreduce.ConfQueryID, id)
		job := jt.Submit(mapreduce.JobSpec{Conf: conf, NewMapper: echoMapper}, mapreduce.SplitsForFile(f))
		reg.Register(id, job, sql, job.ScheduledMaps())
		return job, id
	}
	var lastID string
	for i := 0; i < 3; i++ {
		job, id := submit(fmt.Sprintf("SELECT V FROM t LIMIT 50 -- %d", i))
		mapreduce.RunUntilDone(eng, job, 1e6)
		lastID = id
	}
	eng.RunUntil(eng.Now() + 2)
	// A fourth query is still running when the snapshot is published.
	_, runningID := submit("SELECT V FROM t LIMIT 50 -- running")
	srv.Publish()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	// /queries: full dump, schema-stamped, all three finished.
	rec := get("/queries")
	if rec.Code != 200 {
		t.Fatalf("/queries status %d", rec.Code)
	}
	var dump qstats.Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("bad /queries JSON: %v", err)
	}
	if dump.Schema != qstats.SchemaVersion {
		t.Fatalf("schema %q", dump.Schema)
	}
	if dump.Finished != 3 || len(dump.Queries) != 3 || len(dump.InFlight) != 1 {
		t.Fatalf("dump totals: finished=%d queries=%d inflight=%d", dump.Finished, len(dump.Queries), len(dump.InFlight))
	}
	// The body is the published dump's one JSON writer, byte for byte.
	var want bytes.Buffer
	if err := srv.publishedState().dump.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() {
		t.Fatalf("/queries body differs from Dump.WriteJSON:\n got %s\nwant %s", rec.Body.String(), want.String())
	}

	// /queries?id=: single-record detail.
	rec = get("/queries?id=" + lastID)
	if rec.Code != 200 {
		t.Fatalf("/queries?id status %d", rec.Code)
	}
	var q qstats.QueryRecord
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatalf("bad detail JSON: %v", err)
	}
	if q.ID != lastID || q.State != qstats.StateOK || q.LatencyVirtualS <= 0 {
		t.Fatalf("detail record: %+v", q)
	}
	if rec = get("/queries?id=q-999999"); rec.Code != 404 {
		t.Fatalf("missing id status %d", rec.Code)
	}

	// /live: the run report of the published snapshot, with the
	// refresh and the endpoint links around it.
	rec = get("/live")
	if rec.Code != 200 {
		t.Fatalf("/live status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "<title>dynmr live</title>", lastID, "<h3>Rolling per-policy latency",
		"<h3>In flight</h3>", runningID, "-- running", "<svg", `<meta http-equiv="refresh" content="2">`,
		`<a href="/queries">`, `<a href="/metrics">`, `<a href="/status">`, `<a href="/tsdb">`, `<a href="/alerts">`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/live missing %q", want)
		}
	}

	// /metrics: per-policy latency histogram family present and well
	// formed alongside the existing families.
	rec = get("/metrics")
	body = rec.Body.String()
	for _, want := range []string{
		"# TYPE dynmr_query_latency_virtual_s histogram",
		`dynmr_query_latency_virtual_s_bucket{policy="LA",le="+Inf"} 3`,
		`dynmr_query_latency_virtual_s_count{policy="LA"} 3`,
		"dynmr_queries_finished_total 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestLiveFullWindowSize: once the /live window holds its full
// liveRecentSnaps snapshots, the page stays small enough to refresh
// every 2 s. The per-node small multiples draw a stride of the window,
// as long archived reports do.
func TestLiveFullWindowSize(t *testing.T) {
	eng, _, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 8, 100)
	s := NewSampler(jt, Config{IntervalS: 1})
	s.Start()
	reg := qstats.NewRegistry(jt)
	srv := NewServer(s, reg, nil)
	for i := 0; s.SnapshotCount() <= liveRecentSnaps+20; i++ {
		id := reg.AllocID()
		conf := mapreduce.NewJobConf()
		conf.SetInt(mapreduce.ConfSampleSize, 50)
		conf.Set(mapreduce.ConfDynamicPolicy, "LA")
		conf.Set(mapreduce.ConfQueryID, id)
		job := jt.Submit(mapreduce.JobSpec{Conf: conf, NewMapper: echoMapper}, mapreduce.SplitsForFile(f))
		reg.Register(id, job, fmt.Sprintf("SELECT V FROM t LIMIT 50 -- %d", i), job.ScheduledMaps())
		mapreduce.RunUntilDone(eng, job, 1e6)
		eng.RunUntil(eng.Now() + 10)
	}
	srv.Publish()
	if got := len(srv.publishedState().recent); got != liveRecentSnaps {
		t.Fatalf("published window holds %d snapshots, want %d", got, liveRecentSnaps)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/live", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "Per-node utilization") {
		t.Fatal("/live has no per-node charts")
	}
	const maxBytes = 300 << 10
	if len(body) > maxBytes {
		t.Fatalf("/live of a full window is %d bytes, over %d", len(body), maxBytes)
	}
}

// TestLiveClipsQueryTextByRunes: /live shortens a long query text to
// 60 characters, and a multibyte character across that cut must not
// be split into invalid UTF-8.
func TestLiveClipsQueryTextByRunes(t *testing.T) {
	eng, _, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 8, 100)
	s := NewSampler(jt, Config{IntervalS: 1})
	s.Start()
	reg := qstats.NewRegistry(jt)
	srv := NewServer(s, reg, nil)

	// "é" takes bytes 58 and 59, so a 59-byte cut splits it.
	sql := fmt.Sprintf("%-58s", "SELECT V FROM t WHERE name = 'caf") + "é' LIMIT 50 -- café au lait"
	id := reg.AllocID()
	conf := mapreduce.NewJobConf()
	conf.SetInt(mapreduce.ConfSampleSize, 50)
	conf.Set(mapreduce.ConfQueryID, id)
	job := jt.Submit(mapreduce.JobSpec{Conf: conf, NewMapper: echoMapper}, mapreduce.SplitsForFile(f))
	reg.Register(id, job, sql, job.ScheduledMaps())
	mapreduce.RunUntilDone(eng, job, 1e6)
	srv.Publish()

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/live", nil))
	if !strings.Contains(rec.Body.String(), id) {
		t.Fatalf("/live does not list %s", id)
	}
	if !utf8.ValidString(rec.Body.String()) {
		t.Fatal("/live body is not valid UTF-8")
	}
}

// TestPublishedEndpointsDoNotBlock: every endpoint answers from the
// published snapshot while another goroutine advances the engine, so
// a scrape never waits for a query. Under -race, a handler that read
// the simulation would be reported.
func TestPublishedEndpointsDoNotBlock(t *testing.T) {
	eng, _, fs, jt := rig(t, true)
	f := mkFile(t, fs, "in", 6, 100)
	s := NewSampler(jt, Config{IntervalS: 1})
	s.Start()
	reg := qstats.NewRegistry(jt)
	db, err := tsdb.New(jt, tsdb.Config{Rules: []tsdb.Rule{
		{Name: "jobs-high", Kind: tsdb.KindThreshold, Series: "cluster.running_jobs", Value: 1e9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	db.SetQueryStats(reg)
	db.Start()
	srv := NewServer(s, reg, db)

	id := reg.AllocID()
	stepped := make(chan struct{})
	go func() { // the engine's goroutine: one query, a tsdb tick, then a publish
		defer close(stepped)
		conf := mapreduce.NewJobConf()
		conf.SetInt(mapreduce.ConfSampleSize, 50)
		conf.Set(mapreduce.ConfDynamicPolicy, "HA")
		conf.Set(mapreduce.ConfQueryID, id)
		job := jt.Submit(mapreduce.JobSpec{Conf: conf, NewMapper: echoMapper}, mapreduce.SplitsForFile(f))
		reg.Register(id, job, "SELECT V FROM t LIMIT 50", job.ScheduledMaps())
		mapreduce.RunUntilDone(eng, job, 1e6)
		eng.RunUntil(eng.Now() + tsdb.IntervalS)
		srv.Publish()
	}()

	paths := []string{"/metrics", "/status", "/queries", "/live", "/tsdb", "/alerts"}
	done := make(chan string, len(paths))
	for _, path := range paths {
		go func(p string) {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
			if rec.Code != 200 || rec.Body.Len() == 0 {
				done <- fmt.Sprintf("%s: status %d len %d", p, rec.Code, rec.Body.Len())
				return
			}
			done <- ""
		}(path)
	}
	for range paths {
		select {
		case msg := <-done:
			if msg != "" {
				t.Error(msg)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("endpoint blocked behind the engine")
		}
	}
	<-stepped

	// The published /queries view matches the live registry.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/queries", nil))
	var dump qstats.Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("bad published /queries JSON: %v", err)
	}
	if dump.Finished != 1 || len(dump.Queries) != 1 || dump.Queries[0].ID != id {
		t.Fatalf("published dump: %+v", dump)
	}

	// The published /tsdb and /alerts views are schema-stamped snapshots.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/tsdb", nil))
	var td tsdb.Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &td); err != nil {
		t.Fatalf("bad published /tsdb JSON: %v", err)
	}
	if td.Schema != tsdb.SchemaVersion || len(td.Series) == 0 {
		t.Fatalf("published tsdb dump: schema %q, %d series", td.Schema, len(td.Series))
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	var ad tsdb.AlertsDump
	if err := json.Unmarshal(rec.Body.Bytes(), &ad); err != nil {
		t.Fatalf("bad published /alerts JSON: %v", err)
	}
	if ad.Schema != tsdb.AlertsSchemaVersion || len(ad.Rules) != 1 {
		t.Fatalf("published alerts dump: schema %q, %d rules", ad.Schema, len(ad.Rules))
	}
	// Both bodies are their dump's own writer at the published instant,
	// byte for byte: the engine has not moved since the last Publish.
	for path, write := range map[string]func(io.Writer) error{
		"/tsdb": db.Dump().WriteJSON, "/alerts": db.AlertsDump().WriteJSON,
	} {
		rec = httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		var want bytes.Buffer
		if err := write(&want); err != nil {
			t.Fatal(err)
		}
		if rec.Body.String() != want.String() {
			t.Errorf("%s body differs from WriteJSON:\n got %s\nwant %s", path, rec.Body.String(), want.String())
		}
	}
}
