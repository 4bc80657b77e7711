// Package workload implements the multi-user workload generator of
// §V-D/E: a group of closed-loop users, each submitting a query,
// waiting for its completion, and submitting again, against per-user
// dataset copies; runs proceed through a warm-up window into a
// measured steady-state window from which per-class throughput
// (jobs/hour) is computed.
package workload

import (
	"fmt"
	"sort"

	"dynamicmr/internal/hive"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/sim"
)

// User is one closed-loop workload participant.
type User struct {
	// Name identifies the user (and their Fair Scheduler pool).
	Name string
	// Class labels the user for per-class reporting ("Sampling",
	// "Non-Sampling", ...).
	Class string
	// Query is the HiveQL the user submits repeatedly.
	Query string
	// Session executes the queries (carries the user's SET overrides,
	// e.g. the policy).
	Session *hive.Session

	completed      int       // jobs finished inside the window
	totalCompleted int       // jobs finished at any time
	responseTimes  []float64 // response times inside the window
	inflight       *mapreduce.Job
	failures       int
}

// Config shapes a run.
type Config struct {
	// WarmupS is excluded from measurement (reaching steady state).
	WarmupS float64
	// MeasureS is the measured steady-state window.
	MeasureS float64
	// MaxEvents caps engine events as a runaway guard (0 = 50M).
	MaxEvents uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MeasureS <= 0 {
		return fmt.Errorf("workload: MeasureS must be positive")
	}
	if c.WarmupS < 0 {
		return fmt.Errorf("workload: WarmupS must be non-negative")
	}
	return nil
}

// ClassStats aggregates one class's results.
type ClassStats struct {
	Class string
	// Users in the class.
	Users int
	// Completed jobs inside the measurement window.
	Completed int
	// ThroughputJobsPerHour is Completed scaled to an hour.
	ThroughputJobsPerHour float64
	// MeanResponseS is the mean in-window response time.
	MeanResponseS float64
	// MedianResponseS and P95ResponseS characterise the response-time
	// distribution (0 when no jobs completed).
	MedianResponseS float64
	P95ResponseS    float64
}

// Results summarises a run.
type Results struct {
	// Duration is the measured window length (virtual seconds).
	Duration float64
	// PerClass holds per-class aggregates, sorted by class name.
	PerClass []ClassStats
	// TotalThroughput is jobs/hour across all classes.
	TotalThroughput float64
}

// Class returns a class's stats.
func (r Results) Class(name string) (ClassStats, bool) {
	for _, c := range r.PerClass {
		if c.Class == name {
			return c, true
		}
	}
	return ClassStats{}, false
}

// Run drives the closed loop: every user keeps one query in flight
// from t=0; completions inside [WarmupS, WarmupS+MeasureS) count toward
// throughput. The engine must be the one under the users' sessions.
func Run(eng *sim.Engine, users []*User, cfg Config) (Results, error) {
	if err := cfg.Validate(); err != nil {
		return Results{}, err
	}
	if len(users) == 0 {
		return Results{}, fmt.Errorf("workload: no users")
	}
	maxEvents := cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 50_000_000
	}

	start := eng.Now()
	measureStart := start + cfg.WarmupS
	end := measureStart + cfg.MeasureS

	jt := users[0].Session.JobTracker()
	submit := func(u *User) error {
		_, job, err := u.Session.SubmitAsync(u.Query)
		if err != nil {
			return fmt.Errorf("workload: user %s: %w", u.Name, err)
		}
		u.inflight = job
		return nil
	}
	for _, u := range users {
		if err := submit(u); err != nil {
			return Results{}, err
		}
	}

	events := uint64(0)
	for eng.Now() < end {
		if !eng.Step() {
			return Results{}, fmt.Errorf("workload: event queue drained unexpectedly")
		}
		events++
		if events > maxEvents {
			return Results{}, fmt.Errorf("workload: exceeded %d events at t=%.0fs", maxEvents, eng.Now())
		}
		for _, u := range users {
			if u.inflight == nil || !u.inflight.Done() {
				continue
			}
			job := u.inflight
			u.totalCompleted++
			if job.State() == mapreduce.StateFailed {
				u.failures++
			}
			finish := job.FinishTime
			if finish >= measureStart && finish < end {
				u.completed++
				u.responseTimes = append(u.responseTimes, job.ResponseTime())
			}
			// Release the finished job's buffers and bookkeeping so a
			// long run's cost stays proportional to in-flight work.
			if err := jt.Retire(job); err != nil {
				return Results{}, err
			}
			if err := submit(u); err != nil {
				return Results{}, err
			}
		}
	}

	return aggregate(users, cfg.MeasureS), nil
}

func aggregate(users []*User, duration float64) Results {
	byClass := map[string]*ClassStats{}
	responses := map[string][]float64{}
	var order []string
	for _, u := range users {
		cs := byClass[u.Class]
		if cs == nil {
			cs = &ClassStats{Class: u.Class}
			byClass[u.Class] = cs
			order = append(order, u.Class)
		}
		cs.Users++
		cs.Completed += u.completed
		for _, rt := range u.responseTimes {
			cs.MeanResponseS += rt
		}
		responses[u.Class] = append(responses[u.Class], u.responseTimes...)
	}
	sort.Strings(order)
	res := Results{Duration: duration}
	for _, name := range order {
		cs := byClass[name]
		if cs.Completed > 0 {
			cs.MeanResponseS /= float64(cs.Completed)
		}
		if rts := responses[name]; len(rts) > 0 {
			sort.Float64s(rts)
			cs.MedianResponseS = rts[len(rts)/2]
			p95 := int(float64(len(rts)) * 0.95)
			if p95 >= len(rts) {
				p95 = len(rts) - 1
			}
			cs.P95ResponseS = rts[p95]
		}
		cs.ThroughputJobsPerHour = float64(cs.Completed) * 3600 / duration
		res.PerClass = append(res.PerClass, *cs)
		res.TotalThroughput += cs.ThroughputJobsPerHour
	}
	return res
}
