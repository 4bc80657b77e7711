// Package mapreduce implements a working miniature of Hadoop 0.20's
// MapReduce runtime over the simulated cluster: JobConf job description,
// client/tracker job submission, heartbeat-driven task scheduling with
// pluggable schedulers (FIFO and Fair), map and reduce task execution
// with real user functions, shuffle, counters, and task-failure
// recovery. Task durations (disk, network, CPU) are charged to the
// discrete-event clock, so scheduling behaviour and utilisation match a
// physical cluster's shape while the whole run executes in
// milliseconds.
//
// The incremental-input extension from the paper lives in
// internal/core; this package only exposes the hooks it needs
// (AddSplits, EndOfInput, status snapshots), keeping the JobTracker
// agnostic of Input Providers exactly as §IV prescribes.
package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
)

// Standard JobConf keys. The dynamic.* keys are the paper's §IV
// extension of the JobConf parameter set.
const (
	// ConfJobName is the human-readable job name.
	ConfJobName = "job.name"
	// ConfUser identifies the submitting user (Fair Scheduler pool).
	ConfUser = "job.user"
	// ConfNumReduces sets the reduce-task count (default 1).
	ConfNumReduces = "job.reduces"

	// ConfDynamicJob marks the job as dynamic ("dynamic.job" in §IV):
	// input is provided incrementally by an Input Provider.
	ConfDynamicJob = "dynamic.job"
	// ConfDynamicPolicy names the growth policy ("dynamic.job.policy").
	ConfDynamicPolicy = "dynamic.job.policy"
	// ConfDynamicProvider names the InputProvider implementation
	// ("dynamic.input.provider").
	ConfDynamicProvider = "dynamic.input.provider"

	// ConfInputPath selects the job's input-path mode
	// ("dynamic.input.path"): full, skip or index — see the InputPath*
	// constants. Unset falls back to the runtime's Config.InputPath,
	// then to full. Only jobs declaring a FilterFingerprint are
	// affected.
	ConfInputPath = "dynamic.input.path"

	// ConfQueryID carries the stable per-query ID assigned by the
	// qstats registry ("dynamic.query.id"); empty when query-level
	// observability is disabled. It flows from the Hive session into
	// every log record the runtime emits for the job (vlog key "qid").
	ConfQueryID = "dynamic.query.id"

	// ConfSampleSize is the required sample size k for sampling jobs.
	ConfSampleSize = "sampling.size"
	// ConfPredicate is the sampling predicate in SQL syntax.
	ConfPredicate = "sampling.predicate"
	// ConfProjection is the comma-separated output column list.
	ConfProjection = "sampling.projection"
	// ConfRandomSample selects a uniform random k of the candidate
	// records instead of the first k (the paper's footnote 1: "one
	// could do a 'random' k instead, to get more random results").
	ConfRandomSample = "sampling.random"
	// ConfRandomSeed seeds the random-k selection.
	ConfRandomSeed = "sampling.random.seed"
)

// JobConf is the primary interface for describing a MapReduce job
// (mirroring Hadoop's JobConf): a set of string configuration
// parameters with typed accessors.
type JobConf struct {
	m map[string]string
}

// NewJobConf returns an empty configuration.
func NewJobConf() *JobConf {
	return &JobConf{m: make(map[string]string)}
}

// Set stores a parameter.
func (c *JobConf) Set(key, value string) { c.m[key] = value }

// SetInt stores an integer parameter.
func (c *JobConf) SetInt(key string, v int64) { c.m[key] = strconv.FormatInt(v, 10) }

// SetBool stores a boolean parameter.
func (c *JobConf) SetBool(key string, v bool) { c.m[key] = strconv.FormatBool(v) }

// Get returns the parameter, or def when absent.
func (c *JobConf) Get(key, def string) string {
	if v, ok := c.m[key]; ok {
		return v
	}
	return def
}

// Has reports whether the key is set.
func (c *JobConf) Has(key string) bool {
	_, ok := c.m[key]
	return ok
}

// GetInt returns an integer parameter, or def when absent or malformed.
func (c *JobConf) GetInt(key string, def int64) int64 {
	if v, ok := c.m[key]; ok {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// GetBool returns a boolean parameter, or def when absent or malformed.
func (c *JobConf) GetBool(key string, def bool) bool {
	if v, ok := c.m[key]; ok {
		if b, err := strconv.ParseBool(v); err == nil {
			return b
		}
	}
	return def
}

// Keys returns all set keys, sorted.
func (c *JobConf) Keys() []string {
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the configuration for diagnostics.
func (c *JobConf) String() string {
	s := ""
	for _, k := range c.Keys() {
		s += fmt.Sprintf("%s=%s\n", k, c.m[k])
	}
	return s
}
