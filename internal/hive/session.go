package hive

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"

	"dynamicmr/internal/core"
	"dynamicmr/internal/data"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/qstats"
	"dynamicmr/internal/sampling"
	"dynamicmr/internal/vlog"
)

// Session conf keys (beyond the mapreduce.Conf* set).
const (
	// ConfDeadline bounds a query's virtual runtime in seconds.
	ConfDeadline = "hive.exec.deadline.seconds"
)

// DefaultPolicy is the policy used when dynamic.job.policy is unset —
// LA, which §VII singles out as "a good overall policy to use in both
// homogeneous and heterogeneous workload settings".
const DefaultPolicy = core.PolicyLA

// ResultKind classifies Execute's result.
type ResultKind uint8

const (
	// ResultRows carries query output rows.
	ResultRows ResultKind = iota
	// ResultOK is a side-effect-only acknowledgement (SET).
	ResultOK
	// ResultText carries informational text (EXPLAIN, SHOW, DESCRIBE).
	ResultText
)

// Result is the outcome of executing one statement.
type Result struct {
	Kind ResultKind
	// Columns names the output columns for ResultRows.
	Columns []string
	// Rows holds the output records for ResultRows.
	Rows []data.Record
	// Text holds EXPLAIN/SHOW/DESCRIBE output.
	Text string
	// Job is the MapReduce job that produced the rows, if one ran.
	Job *mapreduce.Job
	// Client is the dynamic JobClient, when the job ran dynamically.
	Client *core.JobClient
}

// Session executes HiveQL against a catalog on a simulated cluster. A
// session belongs to one user (Fair Scheduler pool) and holds its SET
// overrides, mirroring the Hive CLI.
type Session struct {
	jt       *mapreduce.JobTracker
	catalog  *Catalog
	policies *core.Registry
	user     string
	conf     map[string]string
	seed     int64
	queries  int64
	stats    *qstats.Registry
}

// NewSession creates a session for the given user. policies may be nil
// (Table I builtins).
func NewSession(jt *mapreduce.JobTracker, catalog *Catalog, policies *core.Registry, user string) *Session {
	if policies == nil {
		policies = core.DefaultRegistry()
	}
	if user == "" {
		user = "default"
	}
	return &Session{
		jt:       jt,
		catalog:  catalog,
		policies: policies,
		user:     user,
		conf:     make(map[string]string),
		seed:     int64(len(user)) * 7919,
	}
}

// Set applies a conf override (as the SET statement does).
func (s *Session) Set(key, value string) { s.conf[strings.ToLower(key)] = value }

// Get reads a conf override.
func (s *Session) Get(key, def string) string {
	if v, ok := s.conf[strings.ToLower(key)]; ok {
		return v
	}
	return def
}

// SetQueryStats wires the per-query observability registry into the
// session: every subsequent SELECT gets a stable query ID (carried in
// the JobConf as mapreduce.ConfQueryID and logged as vlog key "qid")
// and a lifecycle record in the registry. A nil registry disables the
// layer.
func (s *Session) SetQueryStats(r *qstats.Registry) { s.stats = r }

// JobTracker returns the runtime the session submits to.
func (s *Session) JobTracker() *mapreduce.JobTracker { return s.jt }

// Execute parses and runs one statement, driving the simulation until
// any launched job completes (or the configured deadline passes).
func (s *Session) Execute(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *SetStmt:
		s.Set(st.Key, st.Value)
		return &Result{Kind: ResultOK, Text: fmt.Sprintf("%s=%s", st.Key, st.Value)}, nil
	case ShowTablesStmt:
		return &Result{Kind: ResultText, Text: strings.Join(s.catalog.Names(), "\n")}, nil
	case *DescribeStmt:
		tab, err := s.catalog.Lookup(st.Table)
		if err != nil {
			return nil, err
		}
		return &Result{Kind: ResultText, Text: strings.Join(tab.Schema.Columns(), "\n")}, nil
	case *ExplainStmt:
		plan, err := s.plan(st.Select)
		if err != nil {
			return nil, err
		}
		return &Result{Kind: ResultText, Text: plan.explain()}, nil
	case *SelectStmt:
		plan, client, job, err := s.submitSelect(st, sql)
		if err != nil {
			return nil, err
		}
		log := s.jt.Logger()
		if log.Enabled(context.Background(), slog.LevelInfo) {
			args := []any{
				slog.String(vlog.KeyComponent, "hive"),
				slog.String(vlog.KeyUser, s.user),
				slog.String(vlog.KeyQuery, sql),
				slog.Int(vlog.KeyJob, job.ID),
				slog.Bool("dynamic", job.Dynamic),
			}
			if plan.queryID != "" {
				args = append(args, slog.String(vlog.KeyQueryID, plan.queryID))
			}
			log.Info("query started", args...)
		}
		deadline := s.jt.Engine().Now() + s.deadline()
		if !mapreduce.RunUntilDone(s.jt.Engine(), job, deadline) {
			s.stats.Abandon(job, "deadline exceeded")
			return nil, fmt.Errorf("hive: query exceeded deadline (%gs virtual): %s", s.deadline(), sql)
		}
		if job.State() == mapreduce.StateFailed {
			return nil, fmt.Errorf("hive: job failed: %s", job.Failure())
		}
		if log.Enabled(context.Background(), slog.LevelInfo) {
			args := []any{
				slog.String(vlog.KeyComponent, "hive"),
				slog.String(vlog.KeyUser, s.user),
				slog.Int(vlog.KeyJob, job.ID),
				slog.Float64("response_s", job.ResponseTime()),
				slog.Int("rows", len(job.Output())),
			}
			if plan.queryID != "" {
				args = append(args, slog.String(vlog.KeyQueryID, plan.queryID))
			}
			log.Info("query finished", args...)
		}
		res := &Result{Kind: ResultRows, Columns: plan.outSchema.Columns(), Job: job, Client: client}
		for _, kv := range job.Output() {
			res.Rows = append(res.Rows, kv.Value)
		}
		if len(st.OrderBy) > 0 {
			if err := sortRows(res.Rows, st.OrderBy); err != nil {
				return nil, err
			}
		}
		// Aggregates and top-k queries compute over all input; LIMIT
		// then truncates the output rows.
		if (plan.agg != nil || len(st.OrderBy) > 0) && st.Limit >= 0 && int64(len(res.Rows)) > st.Limit {
			res.Rows = res.Rows[:st.Limit]
		}
		return res, nil
	}
	return nil, fmt.Errorf("hive: unhandled statement %T", stmt)
}

// SubmitAsync plans and submits a SELECT without driving the engine —
// the workload generator's entry point, where many users' queries run
// concurrently under one engine.
func (s *Session) SubmitAsync(sql string) (*core.JobClient, *mapreduce.Job, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("hive: SubmitAsync needs a SELECT, got %T", stmt)
	}
	_, client, job, err := s.submitSelect(sel, sql)
	return client, job, err
}

// submitSelect plans a SELECT, gives it a query ID when the registry is
// on, submits its job and registers it: the steps Execute and
// SubmitAsync share.
func (s *Session) submitSelect(sel *SelectStmt, sql string) (*queryPlan, *core.JobClient, *mapreduce.Job, error) {
	plan, err := s.plan(sel)
	if err != nil {
		return nil, nil, nil, err
	}
	if s.stats.Enabled() {
		plan.queryID = s.stats.AllocID()
	}
	client, job, err := plan.submit()
	if err != nil {
		return nil, nil, nil, err
	}
	s.stats.Register(plan.queryID, job, sql, len(plan.splits))
	return plan, client, job, nil
}

func (s *Session) deadline() float64 {
	if v := s.Get(ConfDeadline, ""); v != "" {
		var f float64
		if _, err := fmt.Sscanf(v, "%g", &f); err == nil && f > 0 {
			return f
		}
	}
	return 1e7
}

// queryPlan is the compiled form of one SELECT.
type queryPlan struct {
	session    *Session
	stmt       *SelectStmt
	queryID    string
	table      *Table
	pred       expr.Expr
	projection *data.Schema
	outSchema  *data.Schema
	dynamic    bool
	adaptive   bool
	policy     *core.Policy
	k          int64
	splits     []mapreduce.Split
	agg        *aggPlan
}

// plan performs semantic analysis and builds the job plan, mirroring
// the paper's modified Hive compiler: a LIMIT query becomes a sampling
// job with the dynamic.job flag and an Input Provider wired in (§IV).
func (s *Session) plan(sel *SelectStmt) (*queryPlan, error) {
	tab, err := s.catalog.Lookup(sel.Table)
	if err != nil {
		return nil, err
	}
	p := &queryPlan{session: s, stmt: sel, table: tab}

	if sel.Where != nil {
		if err := expr.Validate(sel.Where, tab.Schema); err != nil {
			return nil, err
		}
		p.pred = sel.Where
	} else {
		p.pred = &expr.Literal{Val: data.Bool(true)}
	}
	if err := distinctOutputs(sel.Items); err != nil {
		return nil, err
	}

	if sel.HasAggregates() {
		agg, err := newAggPlan(sel, tab.Schema, p.pred)
		if err != nil {
			return nil, err
		}
		p.agg = agg
		p.outSchema = agg.outSchema
		p.splits = mapreduce.SplitsForFile(tab.File)
		// Aggregates need every matching record: always static.
		p.dynamic = false
		return p, p.validateOrderBy()
	}
	if len(sel.GroupBy) > 0 {
		return nil, fmt.Errorf("hive: GROUP BY requires aggregate functions in the SELECT list")
	}

	if cols := sel.Columns(); cols != nil {
		proj, err := tab.Schema.Project(cols...)
		if err != nil {
			return nil, err
		}
		p.projection = proj
		p.outSchema = proj
	} else {
		p.outSchema = tab.Schema
	}

	p.k = math.MaxInt64
	if sel.Limit >= 0 {
		p.k = sel.Limit
	}

	// The modified compiler marks LIMIT queries dynamic unless the user
	// disabled it (SET dynamic.job = false).
	dynDefault := sel.Limit >= 0
	p.dynamic = s.confBool(mapreduce.ConfDynamicJob, dynDefault)
	if len(sel.OrderBy) > 0 {
		// ORDER BY [+ LIMIT] is a top-k query over all matches, not a
		// sample: full static scan, sort, then truncate.
		p.dynamic = false
		p.k = math.MaxInt64
		if err := p.validateOrderBy(); err != nil {
			return nil, err
		}
	}
	if p.dynamic {
		name := s.Get(mapreduce.ConfDynamicPolicy, DefaultPolicy)
		if strings.EqualFold(name, "adaptive") {
			// §VII future work: pick the policy at runtime from load
			// and observed data characteristics.
			p.adaptive = true
			p.policy = core.AdaptiveEnvelopePolicy()
		} else {
			pol, err := s.policies.Get(name)
			if err != nil {
				return nil, err
			}
			p.policy = pol
		}
	}
	p.splits = mapreduce.SplitsForFile(tab.File)
	return p, nil
}

// distinctOutputs rejects a SELECT list that names one output column
// twice: no output schema can hold it.
func distinctOutputs(items []SelectItem) error {
	seen := make(map[string]bool, len(items))
	for _, it := range items {
		name := strings.ToUpper(it.Name())
		if seen[name] {
			return fmt.Errorf("hive: output column %q appears more than once in the SELECT list", it.Name())
		}
		seen[name] = true
	}
	return nil
}

func (s *Session) confBool(key string, def bool) bool {
	v := strings.ToLower(s.Get(key, ""))
	switch v {
	case "true", "1", "yes":
		return true
	case "false", "0", "no":
		return false
	default:
		return def
	}
}

// buildConf assembles the JobConf for the plan.
func (p *queryPlan) buildConf() *mapreduce.JobConf {
	conf := mapreduce.NewJobConf()
	conf.Set(mapreduce.ConfJobName, p.stmt.String())
	conf.Set(mapreduce.ConfUser, p.session.user)
	if p.queryID != "" {
		conf.Set(mapreduce.ConfQueryID, p.queryID)
	}
	// Session overrides flow into the job (Hive semantics).
	for k, v := range p.session.conf {
		conf.Set(k, v)
	}
	// Surface the runtime's default input path in the conf when it is
	// not full and the session didn't override it, so the Input
	// Provider sees the mode too (informed grab ordering keys off the
	// conf). Full mode injects nothing: the conf stays byte-identical
	// to the seed's.
	if mode := p.session.jt.InputPath(); mode != mapreduce.InputPathFull && !conf.Has(mapreduce.ConfInputPath) {
		conf.Set(mapreduce.ConfInputPath, mode)
	}
	return conf
}

// submit launches the job (dynamically or statically).
func (p *queryPlan) submit() (*core.JobClient, *mapreduce.Job, error) {
	if p.agg != nil {
		spec := buildAggJobSpec(p.agg, p.buildConf())
		job := p.session.jt.Submit(spec, p.splits)
		return nil, job, nil
	}
	k := p.k
	if k == 0 {
		// LIMIT 0: a degenerate but legal query.
		k = 1
	}
	spec, err := sampling.NewJobSpec(p.pred, k, p.projection, p.buildConf())
	if err != nil {
		return nil, nil, err
	}
	if p.stmt.Limit == 0 {
		// Emit nothing: wrap the reducer.
		spec.NewReducer = func(*mapreduce.JobConf) mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(string, []data.Record, *mapreduce.Collector) error { return nil })
		}
	}
	if !p.dynamic {
		job := p.session.jt.Submit(spec, p.splits)
		return nil, job, nil
	}
	p.session.queries++
	var provider core.InputProvider = sampling.NewProvider(k, p.session.seed+p.session.queries)
	if p.adaptive {
		provider = core.NewAdaptiveProvider(provider)
	}
	client, err := core.SubmitDynamic(p.session.jt, spec, p.splits, provider, p.policy)
	if err != nil {
		return nil, nil, err
	}
	return client, client.Job(), nil
}

// validateOrderBy checks every sort key against the output schema.
func (p *queryPlan) validateOrderBy() error {
	for _, k := range p.stmt.OrderBy {
		if !p.outSchema.Has(k.Column) {
			return fmt.Errorf("hive: ORDER BY column %q not in the output (have %s)",
				k.Column, strings.Join(p.outSchema.Columns(), ", "))
		}
	}
	return nil
}

// sortRows totally orders rows by the keys (stable; NULLs first as in
// data.Compare).
func sortRows(rows []data.Record, keys []OrderKey) error {
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			a := rows[i].MustGet(k.Column)
			b := rows[j].MustGet(k.Column)
			c, err := data.Compare(a, b)
			if err != nil {
				sortErr = err
				return false
			}
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}

// explain renders the plan.
func (p *queryPlan) explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "QUERY: %s\n", p.stmt)
	fmt.Fprintf(&b, "TABLE: %s (%d partitions, %d records)\n",
		p.table.Name, len(p.splits), p.table.File.TotalRecords())
	fmt.Fprintf(&b, "PREDICATE: %s\n", p.pred)
	if p.projection != nil {
		fmt.Fprintf(&b, "PROJECT: %s\n", strings.Join(p.projection.Columns(), ", "))
	}
	if p.agg != nil {
		fmt.Fprintf(&b, "AGGREGATE: %s (map-side hash aggregation + combiner)\n",
			strings.Join(p.outSchema.Columns(), ", "))
		if len(p.agg.groupBy) > 0 {
			fmt.Fprintf(&b, "GROUP BY: %s\n", strings.Join(p.agg.groupBy, ", "))
		}
	}
	if p.stmt.Limit >= 0 && p.agg == nil {
		fmt.Fprintf(&b, "SAMPLE SIZE: %d\n", p.stmt.Limit)
	}
	switch mode := p.session.Get(mapreduce.ConfInputPath, p.session.jt.InputPath()); mode {
	case mapreduce.InputPathSkip:
		fmt.Fprintf(&b, "INPUT PATH: skip (zone-map skip-scan; non-matching blocks unread)\n")
	case mapreduce.InputPathIndex:
		fmt.Fprintf(&b, "INPUT PATH: index (clustered-index read, informed grab ordering)\n")
	}
	if p.dynamic {
		fmt.Fprintf(&b, "EXECUTION: dynamic job (incremental input)\n")
		fmt.Fprintf(&b, "POLICY: %s (interval=%gs, threshold=%g%%, grab=%s)\n",
			p.policy.Name, p.policy.EvaluationIntervalS, p.policy.WorkThresholdPct, p.policy.GrabLimitExpr)
		fmt.Fprintf(&b, "INPUT PROVIDER: sampling.Provider (selectivity estimation)\n")
	} else {
		fmt.Fprintf(&b, "EXECUTION: static job (all %d partitions up front)\n", len(p.splits))
	}
	return b.String()
}
