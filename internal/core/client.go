package core

import (
	"context"
	"fmt"
	"log/slog"

	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/trace"
	"dynamicmr/internal/vlog"
)

// Decision records one Input Provider consultation, for diagnostics and
// experiments.
type Decision struct {
	// Time of the evaluation (virtual seconds).
	Time float64
	// Response returned by the provider.
	Response Response
	// Added is the number of partitions handed to the job.
	Added int
	// GrabLimit in force at this step.
	GrabLimit int
	// CompletedMaps at the time of the evaluation.
	CompletedMaps int
	// Policy is the name of the policy governing this step (for
	// adaptive providers, the policy selected at this evaluation).
	Policy string
}

// JobClient submits and supervises one dynamic job (§IV): it
// initialises the client-side Input Provider, submits the initial
// input, then — at every EvaluationInterval, when the work threshold is
// met — retrieves job status and cluster load from the JobTracker and
// relays the provider's decision back as AddSplits or EndOfInput.
//
// The provider executes inside the client; a panicking provider is
// isolated (recorded in ProviderError) and the job fails safe by
// closing its input, so the JobTracker — a single point of failure for
// the cluster — is never exposed to pluggable logic.
type JobClient struct {
	jt       *mapreduce.JobTracker
	policy   *Policy
	provider InputProvider
	job      *mapreduce.Job

	totalSplits     int
	addedSplits     int
	completedAtEval int
	decisions       []Decision
	providerErr     error
	inputClosed     bool
}

// SubmitDynamic configures spec as a dynamic job under the policy,
// obtains the initial input from the provider, submits, and starts the
// evaluation loop. allSplits is the job's complete input (what a static
// submission would process).
func SubmitDynamic(jt *mapreduce.JobTracker, spec mapreduce.JobSpec, allSplits []mapreduce.Split,
	provider InputProvider, policy *Policy) (*JobClient, error) {
	if provider == nil {
		return nil, fmt.Errorf("core: dynamic job needs an InputProvider")
	}
	if policy == nil {
		return nil, fmt.Errorf("core: dynamic job needs a Policy")
	}
	if err := policy.Compile(); err != nil {
		return nil, err
	}
	conf := spec.Conf
	if conf == nil {
		conf = mapreduce.NewJobConf()
		spec.Conf = conf
	}
	conf.SetBool(mapreduce.ConfDynamicJob, true)
	conf.Set(mapreduce.ConfDynamicPolicy, policy.Name)
	if !conf.Has(mapreduce.ConfDynamicProvider) {
		conf.Set(mapreduce.ConfDynamicProvider, fmt.Sprintf("%T", provider))
	}

	c := &JobClient{jt: jt, policy: policy, provider: provider, totalSplits: len(allSplits)}

	if ap, ok := provider.(*AdaptiveProvider); ok && ap.Tracer == nil {
		ap.Tracer = jt.Tracer()
	}

	if err := provider.Init(allSplits, conf); err != nil {
		return nil, fmt.Errorf("core: provider init: %w", err)
	}

	cs := jt.ClusterStatus()
	grab, err := policy.GrabLimitWith(cs.AvailableMapSlots(), cs.TotalMapSlots, cs.QueuedMapTasks)
	if err != nil {
		return nil, err
	}
	initial := c.safeInitial(grab)
	if len(initial) > grab {
		initial = initial[:grab]
	}
	c.addedSplits = len(initial)

	c.job = jt.Submit(spec, initial)
	c.auditDecision(trace.VerdictInit, jt.Status(c.job), cs, grab, c.addedSplits, 0)

	if c.providerErr != nil || c.addedSplits >= c.totalSplits {
		// Nothing more can ever be added: close input immediately so
		// the job behaves like a static one (the Hadoop policy's mode).
		c.closeInput()
	} else {
		jt.Engine().After(policy.EvaluationIntervalS, c.evaluate)
	}
	return c, nil
}

// Job returns the supervised job.
func (c *JobClient) Job() *mapreduce.Job { return c.job }

// Policy returns the governing policy.
func (c *JobClient) Policy() *Policy { return c.policy }

// Decisions returns the provider consultation log.
func (c *JobClient) Decisions() []Decision { return c.decisions }

// Evaluations returns how many times the provider was consulted after
// submission.
func (c *JobClient) Evaluations() int { return len(c.decisions) }

// ProviderError reports a provider panic, if one was isolated.
func (c *JobClient) ProviderError() error { return c.providerErr }

func (c *JobClient) closeInput() {
	if c.inputClosed {
		return
	}
	c.inputClosed = true
	if err := c.jt.EndOfInput(c.job); err != nil && c.providerErr == nil {
		c.providerErr = err
	}
}

// policyName resolves the name of the policy governing the current
// step: providers that select policies at runtime (AdaptiveProvider)
// report their latest pick, everything else the submission policy.
func (c *JobClient) policyName() string {
	if cp, ok := c.provider.(policySelector); ok {
		if p := cp.CurrentPolicy(); p != nil {
			return p.Name
		}
	}
	return c.policy.Name
}

// auditDecision records one Input Provider evaluation — its inputs and
// verdict — in the tracer's audit log and the structured log stream.
// No-op when both tracing and logging are disabled.
func (c *JobClient) auditDecision(verdict string, status mapreduce.JobStatus,
	cs mapreduce.ClusterStatus, grab, added int, progressPct float64) {
	if log := c.jt.Logger(); log.Enabled(context.Background(), slog.LevelDebug) {
		args := []any{
			slog.String(vlog.KeyComponent, "jobclient"),
			slog.Int(vlog.KeyJob, status.JobID),
			slog.String(vlog.KeyPolicy, c.policyName()),
			slog.String(vlog.KeyVerdict, verdict),
			slog.Int("added", added),
			slog.Int("grab_limit", grab),
			slog.Int("completed_maps", status.CompletedMaps),
			slog.Int("pending_maps", status.PendingMaps),
			slog.Int("free_slots", cs.AvailableMapSlots()),
		}
		if qid := c.job.Conf.Get(mapreduce.ConfQueryID, ""); qid != "" {
			args = append(args, slog.String(vlog.KeyQueryID, qid))
		}
		log.Debug("input provider decision", args...)
	}
	tr := c.jt.Tracer()
	if !tr.Enabled() {
		return
	}
	tr.RecordPolicyDecision(trace.PolicyDecision{
		Time:             c.jt.Engine().Now(),
		JobID:            status.JobID,
		Policy:           c.policyName(),
		Verdict:          verdict,
		Added:            added,
		GrabLimit:        grab,
		ScheduledMaps:    status.ScheduledMaps,
		CompletedMaps:    status.CompletedMaps,
		PendingMaps:      status.PendingMaps,
		RunningMaps:      status.RunningMaps,
		MapInputRecords:  status.MapInputRecords,
		MapOutputRecords: status.MapOutputRecords,
		TotalSlots:       cs.TotalMapSlots,
		FreeSlots:        cs.AvailableMapSlots(),
		QueuedTasks:      cs.QueuedMapTasks,
		WorkThresholdPct: c.policy.WorkThresholdPct,
		ProgressPct:      progressPct,
	})
}

// safeInitial calls provider.InitialSplits with panic isolation.
func (c *JobClient) safeInitial(grab int) (out []mapreduce.Split) {
	defer func() {
		if r := recover(); r != nil {
			c.providerErr = fmt.Errorf("core: input provider panicked in InitialSplits: %v", r)
			out = nil
		}
	}()
	return c.provider.InitialSplits(grab)
}

// safeNext calls provider.Next with panic isolation.
func (c *JobClient) safeNext(rep Report) (resp Response, splits []mapreduce.Split) {
	defer func() {
		if r := recover(); r != nil {
			c.providerErr = fmt.Errorf("core: input provider panicked in Next: %v", r)
			resp, splits = EndOfInput, nil
		}
	}()
	return c.provider.Next(rep)
}

// evaluate is one tick of the evaluation loop.
func (c *JobClient) evaluate() {
	if c.job.Done() || c.inputClosed {
		return
	}
	status := c.jt.Status(c.job)

	// Work threshold (§III-B): require enough newly finished partitions
	// since the last provider consultation. Liveness override: when
	// every scheduled map has finished, waiting for more work to
	// complete would stall the job forever, so the provider is
	// consulted regardless (documented deviation; the paper does not
	// discuss the stall).
	progressPct := 0.0
	if c.totalSplits > 0 {
		progressPct = float64(status.CompletedMaps-c.completedAtEval) * 100 / float64(c.totalSplits)
	}
	idle := status.PendingMaps == 0 && status.RunningMaps == 0
	if !idle && c.policy.WorkThresholdPct > 0 && c.totalSplits > 0 {
		if progressPct < c.policy.WorkThresholdPct {
			c.auditDecision(trace.VerdictSkip, status, c.jt.ClusterStatus(), 0, 0, progressPct)
			c.jt.Engine().After(c.policy.EvaluationIntervalS, c.evaluate)
			return
		}
	}

	cs := c.jt.ClusterStatus()
	grab, err := c.policy.GrabLimitWith(cs.AvailableMapSlots(), cs.TotalMapSlots, cs.QueuedMapTasks)
	if err != nil {
		c.providerErr = err
		c.closeInput()
		return
	}
	rep := Report{Job: status, Cluster: cs, GrabLimit: grab}
	resp, splits := c.safeNext(rep)
	c.completedAtEval = status.CompletedMaps

	d := Decision{
		Time:          c.jt.Engine().Now(),
		Response:      resp,
		GrabLimit:     grab,
		CompletedMaps: status.CompletedMaps,
		Policy:        c.policyName(),
	}

	switch resp {
	case EndOfInput:
		c.decisions = append(c.decisions, d)
		c.auditDecision(trace.VerdictEOI, status, cs, grab, 0, progressPct)
		c.closeInput()
		return
	case InputAvailable:
		if len(splits) > grab {
			splits = splits[:grab]
		}
		if len(splits) > 0 {
			if err := c.jt.AddSplits(c.job, splits); err != nil {
				c.providerErr = err
				c.closeInput()
				return
			}
			c.addedSplits += len(splits)
		}
		d.Added = len(splits)
		c.decisions = append(c.decisions, d)
		c.auditDecision(trace.VerdictGrow, status, cs, grab, len(splits), progressPct)
		if c.addedSplits >= c.totalSplits {
			// Everything scheduled; no future increment is possible.
			c.closeInput()
			return
		}
	case NoInputAvailable:
		c.decisions = append(c.decisions, d)
		c.auditDecision(trace.VerdictWait, status, cs, grab, 0, progressPct)
	}
	c.jt.Engine().After(c.policy.EvaluationIntervalS, c.evaluate)
}
