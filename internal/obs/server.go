package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/tsdb"
)

// Server is the live operational surface: a Prometheus text-exposition
// /metrics endpoint, a JSON /status, the per-query /queries listing
// (JSON, schema dynamicmr.qstats/1), the time-series /tsdb and /alerts
// dumps, and the self-refreshing /live HTML dashboard.
//
// Handlers serve only the published snapshot: Publish renders every
// endpoint's payload into an immutable view, and no handler touches the
// simulation. NewServer publishes once, and the goroutine that drives
// the engine publishes again after each advance, so a scrape never
// waits for a query to finish.
type Server struct {
	samp *Sampler
	qs   *qstats.Registry
	db   *tsdb.DB

	// Rolling window of recent snapshots for the /live sparklines,
	// maintained incrementally via SnapshotsSince by Publish.
	snapCursor int
	recent     []Snapshot
	// Per-policy provider state for /metrics, folded incrementally
	// from the tracer's decision log by Publish.
	decisionsSeen int
	policies      policyFold

	pubMu sync.RWMutex
	pub   *published
}

// liveRecentSnaps bounds the /live utilization sparkline window.
const liveRecentSnaps = 240

// published is one immutable, pre-rendered view of every endpoint.
type published struct {
	metrics []byte
	status  []byte
	dump    qstats.Dump
	vt      float64
	recent  []Snapshot
	scan    *ScanStats
	// tsdbJSON / alertsJSON are the pre-rendered /tsdb and /alerts
	// payloads; nil when no time-series engine is attached. trends and
	// alerts carry the structured views the /live panels render from.
	tsdbJSON   []byte
	alertsJSON []byte
	trends     tsdb.Dump
	alerts     tsdb.AlertsDump
}

// NewServer serves the sampler's cluster, with the per-query registry
// (/queries, query detail on /live, the latency and QPS families on
// /metrics) and the time-series engine (/tsdb, /alerts, the /live trend
// panels) when they are non-nil, and publishes their current state.
func NewServer(samp *Sampler, qs *qstats.Registry, db *tsdb.DB) *Server {
	s := &Server{samp: samp, qs: qs, db: db}
	s.Publish()
	return s
}

// Publish renders every endpoint's payload and installs it as the
// served snapshot. Only the goroutine that drives the engine may call
// it, after each advance; scrapes in between see the previous view.
func (s *Server) Publish() {
	var metrics bytes.Buffer
	_ = trace.WritePrometheus(&metrics, s.promFamilies()) // a bytes.Buffer never fails a write
	status := s.statusPayload()
	statusJSON, err := json.MarshalIndent(status, "", "  ")
	if err != nil {
		// A non-finite reading cannot be encoded: serve the error.
		statusJSON, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	fresh := s.samp.SnapshotsSince(s.snapCursor)
	s.snapCursor += len(fresh)
	s.recent = append(s.recent, fresh...)
	if len(s.recent) > liveRecentSnaps {
		s.recent = append(s.recent[:0:0], s.recent[len(s.recent)-liveRecentSnaps:]...)
	}
	p := &published{metrics: metrics.Bytes(), status: statusJSON, dump: s.qs.Dump(),
		vt: s.samp.JobTracker().Engine().Now(), recent: append([]Snapshot(nil), s.recent...), scan: status.Scan}
	if s.db.Enabled() {
		p.trends, p.alerts = s.db.Dump(), s.db.AlertsDump()
		p.tsdbJSON, _ = json.MarshalIndent(p.trends, "", "  ")
		p.alertsJSON, _ = json.MarshalIndent(p.alerts, "", "  ")
	}
	s.pubMu.Lock()
	s.pub = p
	s.pubMu.Unlock()
}

func (s *Server) publishedState() *published {
	s.pubMu.RLock()
	defer s.pubMu.RUnlock()
	return s.pub
}

// Handler returns the HTTP mux serving the endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/queries", s.handleQueries)
	mux.HandleFunc("/tsdb", s.handleTSDB)
	mux.HandleFunc("/alerts", s.handleAlerts)
	mux.HandleFunc("/live", s.handleLive)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "dynmr observability endpoints:\n  /metrics  Prometheus text exposition\n  /status   JSON run status\n  /queries  JSON per-query stats (?id=q-000001 for detail)\n  /tsdb     JSON time-series history (schema dynamicmr.tsdb/1)\n  /alerts   JSON alert rules, active set and event log (schema dynamicmr.alerts/1)\n  /live     self-refreshing HTML dashboard")
	})
	return mux
}

// promFamilies assembles the full exposition set: registry families
// (counters, gauges, histogram scalars), live queue gauges, per-node
// families from the latest snapshot, per-policy families folded from
// the decision log, and — when a query registry is attached — the
// per-policy latency histograms and query counters.
func (s *Server) promFamilies() []trace.PromFamily {
	jt := s.samp.JobTracker()
	tr := jt.Tracer()
	fams := tr.PromFamilies("dynmr.")

	st := jt.ClusterStatus()
	gauge := func(name, help string, v float64) {
		fams = append(fams, trace.PromFamily{Name: name, Help: help, Type: trace.PromGauge,
			Samples: []trace.PromSample{{Value: v}}})
	}
	gauge("dynmr.virtual_time_seconds", "Current virtual-clock time.", jt.Engine().Now())
	gauge("dynmr.map_slots", "Configured cluster map slots.", float64(st.TotalMapSlots))
	gauge("dynmr.map_slots_occupied", "Occupied map slots.", float64(st.OccupiedMapSlots))
	gauge("dynmr.reduce_slots", "Configured cluster reduce slots.", float64(st.TotalReduceSlots))
	gauge("dynmr.reduce_slots_occupied", "Occupied reduce slots.", float64(st.OccupiedReduces))
	gauge("dynmr.queued_map_tasks", "Scheduled map tasks waiting for a slot.", float64(st.QueuedMapTasks))
	gauge("dynmr.queued_reduce_tasks", "Reduce partitions waiting for a slot.", float64(st.QueuedReduceTasks))
	gauge("dynmr.running_jobs", "Jobs submitted and not yet finished.", float64(st.RunningJobs))

	fams = append(fams, s.qs.PromFamilies("dynmr.")...)

	fresh := tr.PolicyDecisionsSince(s.decisionsSeen)
	s.decisionsSeen += len(fresh)
	for _, d := range fresh {
		s.policies.add(d)
	}
	if policies := s.policies.states(); len(policies) > 0 {
		granted := trace.PromFamily{Name: "dynmr.policy.splits_granted",
			Help: "Cumulative input partitions granted by the Input Provider.", Type: trace.PromCounter}
		evals := trace.PromFamily{Name: "dynmr.policy.evaluations",
			Help: "Input Provider evaluations recorded.", Type: trace.PromCounter}
		headroom := trace.PromFamily{Name: "dynmr.policy.headroom_pct",
			Help: "Last progress percentage minus the policy's work threshold.", Type: trace.PromGauge}
		for _, ps := range policies {
			labels := []trace.PromLabel{{Name: "policy", Value: ps.Policy}}
			granted.Samples = append(granted.Samples, trace.PromSample{Labels: labels, Value: float64(ps.SplitsGranted)})
			evals.Samples = append(evals.Samples, trace.PromSample{Labels: labels, Value: float64(ps.Evaluations)})
			headroom.Samples = append(headroom.Samples, trace.PromSample{Labels: labels, Value: ps.HeadroomPct})
		}
		fams = append(fams, granted, evals, headroom)
	}

	snap, ok := s.samp.Latest()
	if !ok {
		return fams
	}
	node := func(name, help string, val func(NodeSample) float64) {
		f := trace.PromFamily{Name: name, Help: help, Type: trace.PromGauge}
		for _, ns := range snap.Nodes {
			f.Samples = append(f.Samples, trace.PromSample{
				Labels: []trace.PromLabel{{Name: "node", Value: fmt.Sprint(ns.Node)}},
				Value:  val(ns),
			})
		}
		fams = append(fams, f)
	}
	node("dynmr.node.cpu_util_pct", "Per-node CPU utilisation over the last sample interval.",
		func(ns NodeSample) float64 { return ns.CPUUtilPct })
	node("dynmr.node.disk_read_kb_s", "Per-node mean per-disk transfer rate over the last sample interval.",
		func(ns NodeSample) float64 { return ns.DiskReadKBs })
	node("dynmr.node.map_slot_pct", "Per-node map-slot occupancy over the last sample interval.",
		func(ns NodeSample) float64 { return ns.MapSlotPct })
	node("dynmr.node.map_slots_used", "Per-node occupied map slots at the last sample.",
		func(ns NodeSample) float64 { return float64(ns.MapSlotsUsed) })
	node("dynmr.node.reduce_slots_used", "Per-node occupied reduce slots at the last sample.",
		func(ns NodeSample) float64 { return float64(ns.ReduceSlotsUsed) })
	return fams
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(s.publishedState().metrics)
}

// StatusPayload is the /status JSON document.
type StatusPayload struct {
	VirtualTimeS    float64    `json:"virtual_time_s"`
	ProcessedEvents int64      `json:"processed_events"`
	RunningJobs     int        `json:"running_jobs"`
	MapSlots        int        `json:"map_slots"`
	MapSlotsUsed    int        `json:"map_slots_used"`
	ReduceSlots     int        `json:"reduce_slots"`
	ReduceSlotsUsed int        `json:"reduce_slots_used"`
	QueuedMaps      int        `json:"queued_map_tasks"`
	QueuedReduces   int        `json:"queued_reduce_tasks"`
	Samples         int        `json:"samples"`
	Scan            *ScanStats `json:"scan,omitempty"`
	Latest          *Snapshot  `json:"latest,omitempty"`
}

// ScanStats surfaces the input-path mode and its block-level effect:
// blocks actually read versus blocks the skip/index path proved it
// could avoid. Present only when the run uses a reduced input path or
// the scan counters are non-zero — a plain full-scan run reports no
// scan section at all.
type ScanStats struct {
	InputPath     string `json:"input_path"`
	BlocksRead    int64  `json:"blocks_read"`
	BlocksSkipped int64  `json:"blocks_skipped"`
}

// scanStats reads the input-path mode and scan counters off the
// tracker, returning nil for an unremarkable full-scan run.
func scanStats(jt *mapreduce.JobTracker) *ScanStats {
	tr := jt.Tracer()
	read := tr.Counter(trace.CounterScanBlocksRead)
	skipped := tr.Counter(trace.CounterScanBlocksSkipped)
	mode := jt.InputPath()
	if mode == "" {
		mode = mapreduce.InputPathFull
	}
	if mode == mapreduce.InputPathFull && read == 0 && skipped == 0 {
		return nil
	}
	return &ScanStats{InputPath: mode, BlocksRead: read, BlocksSkipped: skipped}
}

// statusPayload builds the /status document.
func (s *Server) statusPayload() StatusPayload {
	jt := s.samp.JobTracker()
	st := jt.ClusterStatus()
	payload := StatusPayload{
		VirtualTimeS:    jt.Engine().Now(),
		ProcessedEvents: int64(jt.Engine().Processed()),
		RunningJobs:     st.RunningJobs,
		MapSlots:        st.TotalMapSlots,
		MapSlotsUsed:    st.OccupiedMapSlots,
		ReduceSlots:     st.TotalReduceSlots,
		ReduceSlotsUsed: st.OccupiedReduces,
		QueuedMaps:      st.QueuedMapTasks,
		QueuedReduces:   st.QueuedReduceTasks,
		Samples:         s.samp.SnapshotCount(),
		Scan:            scanStats(jt),
	}
	if snap, ok := s.samp.Latest(); ok {
		payload.Latest = &snap
	}
	return payload
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(s.publishedState().status)
}

// handleQueries serves the qstats dump (schema dynamicmr.qstats/1).
// ?id=q-000042 returns that single record — finished or in-flight —
// with its full diagnosis breakdown.
func (s *Server) handleQueries(w http.ResponseWriter, req *http.Request) {
	dump := s.publishedState().dump
	if id := req.URL.Query().Get("id"); id != "" {
		for i := len(dump.Queries) - 1; i >= 0; i-- {
			if dump.Queries[i].ID == id {
				writeJSON(w, dump.Queries[i])
				return
			}
		}
		for i := range dump.InFlight {
			if dump.InFlight[i].ID == id {
				writeJSON(w, dump.InFlight[i])
				return
			}
		}
		http.Error(w, fmt.Sprintf("no query %q", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = dump.WriteJSON(w) // unreported, as in writeJSON: the status line may be sent already
}

// handleTSDB serves the time-series engine's full dump (schema
// dynamicmr.tsdb/1): every series' raw ring plus its rollup levels.
// 404 when no engine is attached.
func (s *Server) handleTSDB(w http.ResponseWriter, _ *http.Request) {
	writePublishedJSON(w, s.publishedState().tsdbJSON)
}

// handleAlerts serves the alert layer's dump (schema dynamicmr.alerts/1):
// configured rules, currently firing set, transition log. 404 when no
// engine is attached.
func (s *Server) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	writePublishedJSON(w, s.publishedState().alertsJSON)
}

// writePublishedJSON writes a pre-rendered tsdb payload, or 404 when no
// engine is attached.
func writePublishedJSON(w http.ResponseWriter, payload []byte) {
	if payload == nil {
		http.Error(w, "no time-series engine attached (run with tsdb enabled)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(payload)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
