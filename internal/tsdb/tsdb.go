// Package tsdb is the in-process time-series engine: fixed-capacity
// downsampling ring buffers (raw points plus min/max/sum/count rollups
// per resolution step) on the virtual clock, fed at each tick from the
// JobTracker's cluster status, a mapreduce.UtilizationCursor (the
// cluster's CPU, disk, network and slot means over the tick), the
// engine's clock, the trace registry's counters, the qstats per-policy
// latency aggregates, and derived per-query series (finishes per
// virtual second per policy, match-arrival rate, per-split scan cost,
// overshoot ratio, in-flight count). On top sits the alert/SLO layer:
// declarative rules (threshold, rate-of-change, latency-objective burn)
// evaluated at every collection tick, producing a bounded
// firing/resolved event log with the stable schema AlertsSchemaVersion.
//
// The engine never samples on its own threads: Start schedules a
// self-renewing virtual tick on the simulation engine, exactly like the
// obs utilization sampler, so every collection and evaluation runs on
// the engine goroutine under the driver's lock. Like the sampler's, its
// cursor reads passively, so a tick cannot move a completion.
// Snapshot methods (Dump, AlertsDump, Latest) must run under the same
// discipline — the obs server serializes them behind its simulation
// mutex and publishes pre-rendered payloads for lock-free scraping.
package tsdb

import (
	"encoding/json"
	"io"
	"sort"

	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/trace"
)

// SchemaVersion identifies the JSON layout of Dump (the /tsdb payload
// and the archive's series section).
const SchemaVersion = "dynamicmr.tsdb/1"

// AlertsSchemaVersion identifies the JSON layout of AlertsDump (the
// /alerts payload, the archive's alert log and `dynmr render alerts`).
const AlertsSchemaVersion = "dynamicmr.alerts/1"

// IntervalS is the collection cadence in virtual seconds.
const IntervalS = 5.0

// rawCapacity is the per-series raw ring size (30 virtual minutes of
// full-resolution history).
const rawCapacity = 360

// maxAlertEvents bounds the alert log; the oldest half is dropped (and
// counted) past 125% of the cap, mirroring the qstats retention trim.
const maxAlertEvents = 1024

// resolutions is the rollup ladder: 1-minute buckets for four virtual
// hours, 10-minute buckets for 40.
var resolutions = [...]Resolution{{StepS: 60, Capacity: 240}, {StepS: 600, Capacity: 240}}

// Config parameterizes New. Rules may be empty (trends without
// alerts).
type Config struct {
	Rules []Rule
}

// DB is one run's time-series engine. It is not internally locked: the
// tick runs on the engine goroutine and snapshot callers hold the same
// driver lock that gates engine stepping (the obs.Sampler discipline). All
// methods are safe on a nil *DB — the disabled state costs a nil check.
type DB struct {
	jt *mapreduce.JobTracker
	qs *qstats.Registry

	running bool

	series map[string]*Series
	order  []string

	// Series resolved once: one per registry counter, by slot, and
	// three per policy qstats lists.
	counters [trace.NumCounters]*Series
	policies map[string]*policySeries

	// cur gives each tick its interval and utilization means.
	cur *mapreduce.UtilizationCursor

	// Derived-series state: the previous map-duration histogram
	// snapshot (per-split cost is its delta), and the finished-query
	// cursor and the buffer its reads reuse.
	prevMapHist trace.HistogramSnapshot
	qseq        int64
	outcomes    []qstats.Outcome

	rules   []*ruleState
	events  []AlertEvent
	dropped int64
}

// New builds a DB bound to the JobTracker. Rules are validated (the
// same checks ParseRules applies); an invalid rule is an error, never
// silently dropped.
func New(jt *mapreduce.JobTracker, cfg Config) (*DB, error) {
	db := &DB{
		jt:       jt,
		cur:      jt.NewUtilizationCursor(),
		series:   make(map[string]*Series),
		policies: make(map[string]*policySeries),
	}
	if err := ValidateRules(cfg.Rules); err != nil {
		return nil, err
	}
	for _, r := range cfg.Rules {
		db.rules = append(db.rules, &ruleState{rule: r, pendingSince: -1})
	}
	return db, nil
}

// Enabled reports whether the engine exists.
func (db *DB) Enabled() bool { return db != nil }

// SetQueryStats attaches the qstats registry the per-query series and
// slo_burn rules read from.
func (db *DB) SetQueryStats(qs *qstats.Registry) {
	if db != nil {
		db.qs = qs
	}
}

// Start schedules the self-renewing collection tick on the virtual
// clock. It is a no-op once started, so a DB never runs two tick
// loops.
func (db *DB) Start() {
	if db == nil || db.running {
		return
	}
	db.running = true
	eng := db.jt.Engine()
	var tick func()
	tick = func() {
		db.tick()
		eng.After(IntervalS, tick)
	}
	eng.After(IntervalS, tick)
}

// tick is one collection + evaluation pass on the engine goroutine
// over the virtual time since the last pass. It does nothing when no
// time has passed, as when a Flush ran at the same instant.
func (db *DB) tick() {
	if u, ok := db.cur.Advance(nil); ok {
		db.collect(u)
		db.evaluate(u.Time)
	}
}

// Flush runs one final collection + evaluation pass at the current
// virtual time. The scheduled tick only fires while the engine is
// advancing, so a query that finishes after the last tick — the common
// shape for short runs, which stop the clock the moment the last job
// completes — would otherwise never reach the slo_burn windows or the
// rule state machines. Callers flush right before Dump/AlertsDump
// (same locking discipline). No-op if the clock has not moved since
// the last pass.
func (db *DB) Flush() {
	if db != nil && db.running {
		db.tick()
	}
}

// at returns (creating on first use) the named series.
func (db *DB) at(name string) *Series {
	s := db.series[name]
	if s == nil {
		s = newSeries(rawCapacity, resolutions[:])
		db.series[name] = s
		db.order = append(db.order, name)
	}
	return s
}

func (db *DB) put(t float64, name string, v float64) {
	db.at(name).Append(t, v)
}

// policySeries is one listed policy's series.
type policySeries struct{ qps, p50, p99 *Series }

// collect appends one point per source series at the end of the tick
// u covers.
func (db *DB) collect(u mapreduce.Utilization) {
	now, dt := u.Time, u.IntervalS
	st := db.jt.ClusterStatus()
	db.put(now, "cluster.running_jobs", float64(st.RunningJobs))
	db.put(now, "cluster.queued_map_tasks", float64(st.QueuedMapTasks))
	db.put(now, "cluster.queued_reduce_tasks", float64(st.QueuedReduceTasks))
	// Means over the tick, from the cursor the obs sampler and the §V-D
	// poll advance too.
	db.put(now, "cluster.map_slot_pct", u.MapSlotPct)
	db.put(now, "cluster.reduce_slot_pct", u.ReduceSlotPct)
	db.put(now, "cluster.cpu_util_pct", u.CPUUtilPct)
	db.put(now, "cluster.disk_read_kb_s", u.DiskReadKBs)
	db.put(now, "cluster.network_util_pct", u.NetworkUtilPct)
	db.put(now, "sim.virtual_time_s", now)
	db.put(now, "sim.processed_events", float64(db.jt.Engine().Processed()))

	if tr := db.jt.Tracer(); tr.Enabled() {
		// Every registry counter becomes a series under its own name:
		// scan.blocks_read/skipped and engine.memo_hits/misses arrive
		// through this one path.
		tr.EachCounter(func(c trace.Counter, v int64) {
			if db.counters[c] == nil {
				db.counters[c] = db.at(c.String())
			}
			db.counters[c].Append(now, float64(v))
		})
		if h, ok := tr.Histogram(trace.HistMapDuration); ok {
			if dc := h.Count - db.prevMapHist.Count; dc > 0 {
				db.put(now, "query.split_cost_s", (h.Sum-db.prevMapHist.Sum)/float64(dc))
			}
			db.prevMapHist = h
		}
	}

	if db.qs.Enabled() {
		started, finished, _ := db.qs.Totals()
		db.put(now, "query.in_flight", float64(started-finished))
		// Finished queries' outcomes are final at their finish, so the
		// tick never waits for their diagnoses.
		db.outcomes, db.qseq = db.qs.OutcomesSince(db.outcomes[:0], db.qseq)
		recs := db.outcomes
		for _, p := range db.qs.PolicyStats() {
			ps := db.policies[p.Policy]
			if ps == nil {
				ps = &policySeries{db.at("query.qps." + p.Policy),
					db.at("query.latency_p50_s." + p.Policy), db.at("query.latency_p99_s." + p.Policy)}
				db.policies[p.Policy] = ps
			}
			// Finishes per virtual second over the tick, not qstats'
			// host-clock QPS window.
			n := 0
			for _, q := range recs {
				if q.Policy == p.Policy {
					n++
				}
			}
			ps.qps.Append(now, float64(n)/dt)
			ps.p50.Append(now, p.VirtualP50S)
			ps.p99.Append(now, p.VirtualP99S)
		}
		if len(recs) > 0 {
			var matches, over, rows int64
			for _, q := range recs {
				matches += q.Matches
				over += q.OvershootRows
				rows += int64(q.Rows)
			}
			db.put(now, "query.match_rate", float64(matches)/dt)
			if rows > 0 {
				db.put(now, "query.overshoot_ratio", float64(over)/float64(rows))
			}
		}
		db.feedWindows(recs)
	}
}

// feedWindows pushes newly finished queries into every slo_burn rule's
// trailing window.
func (db *DB) feedWindows(recs []qstats.Outcome) {
	for _, rs := range db.rules {
		if rs.rule.Kind != KindSLOBurn {
			continue
		}
		for _, q := range recs {
			if rs.rule.Policy != "" && q.Policy != rs.rule.Policy {
				continue
			}
			rs.window = append(rs.window, burnObs{t: q.FinishVT, over: q.LatencyVirtualS > rs.rule.ObjectiveS})
		}
	}
}

// evaluate runs every rule's state machine at virtual time now.
func (db *DB) evaluate(now float64) {
	for _, rs := range db.rules {
		v, ok := db.ruleValue(rs, now)
		if rs.rule.Kind == KindSLOBurn && ok {
			if rs.burn == nil {
				rs.burn = db.at("slo." + rs.rule.Name + ".burn_pct")
			}
			rs.burn.Append(now, v)
		}
		cond := ok && compare(rs.rule.op(), v, rs.rule.threshold())
		db.transition(rs, now, v, cond)
	}
}

// emit appends a transition to the bounded alert log and mirrors it to
// the runtime's structured log stream.
func (db *DB) emit(e AlertEvent) {
	if len(db.events) > maxAlertEvents+maxAlertEvents/4 {
		n := len(db.events) - maxAlertEvents
		db.dropped += int64(n)
		db.events = append(db.events[:0:0], db.events[n:]...)
	}
	db.events = append(db.events, e)
	db.jt.Logger().Info("alert",
		"rule", e.Rule, "state", e.State,
		"value", e.Value, "threshold", e.Threshold, "severity", e.Severity)
}

// Latest returns the newest point of the named series.
func (db *DB) Latest(name string) (Point, bool) {
	if db == nil {
		return Point{}, false
	}
	s := db.series[name]
	if s == nil {
		return Point{}, false
	}
	return s.Latest()
}

// SeriesDump is one series in a Dump: raw points plus one rollup block
// per resolution level (the last bucket of each block is the still-open
// partial one).
type SeriesDump struct {
	Name    string       `json:"name"`
	Points  []Point      `json:"points"`
	Rollups []RollupDump `json:"rollups,omitempty"`
}

// RollupDump is one resolution level's buckets.
type RollupDump struct {
	StepS   float64  `json:"step_s"`
	Buckets []Bucket `json:"buckets"`
}

// Dump is the full engine snapshot, schema SchemaVersion. Series are
// sorted by name so the payload is deterministic.
type Dump struct {
	Schema       string       `json:"schema"`
	VirtualTimeS float64      `json:"virtual_time_s"`
	IntervalS    float64      `json:"interval_s"`
	Series       []SeriesDump `json:"series"`
}

// Dump snapshots every series. The virtual clock is read from the
// engine, so callers hold the simulation lock (as with qstats.Dump).
func (db *DB) Dump() Dump {
	if db == nil {
		return Dump{Schema: SchemaVersion}
	}
	d := Dump{Schema: SchemaVersion, VirtualTimeS: db.jt.Engine().Now(), IntervalS: IntervalS}
	names := append([]string(nil), db.order...)
	sort.Strings(names)
	for _, name := range names {
		s := db.series[name]
		sd := SeriesDump{Name: name, Points: s.Points()}
		for i := range s.levels {
			sd.Rollups = append(sd.Rollups, RollupDump{StepS: s.levels[i].step, Buckets: s.Buckets(i)})
		}
		d.Series = append(d.Series, sd)
	}
	return d
}

// AlertsDump is the alert layer's snapshot, schema AlertsSchemaVersion:
// the configured rules, the currently firing set, and the bounded
// transition log.
type AlertsDump struct {
	Schema       string        `json:"schema"`
	VirtualTimeS float64       `json:"virtual_time_s"`
	Rules        []Rule        `json:"rules,omitempty"`
	Active       []ActiveAlert `json:"active,omitempty"`
	Events       []AlertEvent  `json:"events,omitempty"`
	Dropped      int64         `json:"dropped_events,omitempty"`
}

// AlertsDump snapshots the alert layer (same locking discipline as
// Dump).
func (db *DB) AlertsDump() AlertsDump {
	if db == nil {
		return AlertsDump{Schema: AlertsSchemaVersion}
	}
	a := AlertsDump{
		Schema:       AlertsSchemaVersion,
		VirtualTimeS: db.jt.Engine().Now(),
		Dropped:      db.dropped,
	}
	for _, rs := range db.rules {
		a.Rules = append(a.Rules, rs.rule)
		if rs.firing {
			a.Active = append(a.Active, ActiveAlert{
				Rule: rs.rule.Name, SinceS: rs.firingSince,
				Value: rs.lastValue, Threshold: rs.rule.threshold(),
				Severity: rs.rule.Severity,
			})
		}
	}
	if len(db.events) > 0 {
		a.Events = append([]AlertEvent(nil), db.events...)
	}
	return a
}

// WriteJSON writes the dump as indented JSON.
func (d Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteJSON writes the alerts dump as indented JSON (the `dynmr render
// alerts` output).
func (a AlertsDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}
