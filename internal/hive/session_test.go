package hive

import (
	"fmt"
	"strings"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/core"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/tpch"
)

// sessionRig builds a cluster with a small LINEITEM table registered.
type sessionRig struct {
	eng     *sim.Engine
	jt      *mapreduce.JobTracker
	catalog *Catalog
	ds      *dataset.Dataset
}

func newSessionRig(t *testing.T, z float64) *sessionRig {
	t.Helper()
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.PaperConfig())
	fs := dfs.New(cl)
	jt := mapreduce.NewJobTracker(cl, mapreduce.DefaultConfig(), nil)
	ds, err := dataset.Build(dataset.Spec{
		Scale: 1, Seed: 21, Z: z, Selectivity: 0.002, Partitions: 40, RowsOverride: 200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	srcs := make([]data.Source, ds.NumPartitions())
	for i, p := range ds.Partitions() {
		srcs[i] = p
	}
	f, err := fs.Create("lineitem", srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := NewCatalog()
	if err := catalog.Register(&Table{Name: "lineitem", Schema: tpch.LineItemSchema, File: f}); err != nil {
		t.Fatal(err)
	}
	return &sessionRig{eng: eng, jt: jt, catalog: catalog, ds: ds}
}

func (r *sessionRig) session(user string) *Session {
	return NewSession(r.jt, r.catalog, nil, user)
}

func TestSessionSamplingQuery(t *testing.T) {
	r := newSessionRig(t, 1)
	s := r.session("alice")
	res, err := s.Execute(
		"SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != ResultRows {
		t.Fatalf("kind = %v", res.Kind)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("rows = %d, want 100", len(res.Rows))
	}
	if len(res.Columns) != 3 || res.Columns[0] != "L_ORDERKEY" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Client == nil {
		t.Fatal("LIMIT query should run dynamically by default")
	}
	if !res.Job.Conf.GetBool(mapreduce.ConfDynamicJob, false) {
		t.Fatal("dynamic.job not stamped by compiler")
	}
	if res.Job.Conf.Get(mapreduce.ConfDynamicPolicy, "") != DefaultPolicy {
		t.Fatalf("policy = %q", res.Job.Conf.Get(mapreduce.ConfDynamicPolicy, ""))
	}
	// Dynamic execution should have saved work.
	if res.Job.CompletedMaps() >= r.ds.NumPartitions() {
		t.Fatalf("processed all %d partitions despite dynamic execution", res.Job.CompletedMaps())
	}
}

func TestSessionPolicySelection(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("bob")
	if _, err := s.Execute("SET dynamic.job.policy = C"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Execute("SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.11 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Client == nil || res.Client.Policy().Name != core.PolicyC {
		t.Fatalf("policy not applied: %+v", res.Client)
	}
}

func TestSessionAdaptivePolicy(t *testing.T) {
	r := newSessionRig(t, 1)
	s := r.session("ada")
	s.Execute("SET dynamic.job.policy = Adaptive")
	res, err := s.Execute("SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Client == nil || res.Client.Policy().Name != "Adaptive" {
		t.Fatalf("adaptive policy not engaged: %+v", res.Client.Policy())
	}
}

func TestSessionUnknownPolicyErrors(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("bob")
	s.Execute("SET dynamic.job.policy = bogus")
	_, err := s.Execute("SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.11 LIMIT 10")
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v", err)
	}
}

func TestSessionStaticOverride(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("carol")
	s.Execute("SET dynamic.job = false")
	res, err := s.Execute("SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.11 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Client != nil {
		t.Fatal("static override ignored")
	}
	if res.Job.CompletedMaps() != r.ds.NumPartitions() {
		t.Fatalf("static job processed %d partitions, want all", res.Job.CompletedMaps())
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestSessionScanQuery(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("dave")
	// No LIMIT: a select-project query (the heterogeneous workload's
	// Non-Sampling class). Runs statically and returns every match.
	res, err := s.Execute("SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.11")
	if err != nil {
		t.Fatal(err)
	}
	if res.Client != nil {
		t.Fatal("scan query should be static")
	}
	if int64(len(res.Rows)) != r.ds.TotalMatches() {
		t.Fatalf("rows = %d, want all %d matches", len(res.Rows), r.ds.TotalMatches())
	}
}

func TestSessionSelectStarSchema(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("eve")
	res, err := s.Execute("SELECT * FROM lineitem WHERE L_DISCOUNT = 0.11 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 16 {
		t.Fatalf("star projection returned %d columns", len(res.Columns))
	}
	for _, row := range res.Rows {
		if row.MustGet("L_DISCOUNT").AsFloat() != 0.11 {
			t.Fatalf("row violates predicate: %v", row)
		}
	}
}

func TestSessionLimitZero(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("zed")
	res, err := s.Execute("SELECT * FROM lineitem WHERE L_DISCOUNT = 0.11 LIMIT 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
}

func TestSessionErrors(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("erin")
	for _, q := range []string{
		"SELECT * FROM nope LIMIT 1",
		"SELECT NOPE_COL FROM lineitem LIMIT 1",
		"SELECT * FROM lineitem WHERE NOPE = 1 LIMIT 1",
		"SELECT * FRM lineitem",
	} {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("Execute(%q) succeeded", q)
		}
	}
}

// TestSessionRepeatedOutputColumn: a SELECT list that names an output
// column twice, in any case, is a semantic error naming the column, and
// the session still runs the next statement.
// TestSessionTypeErrors: a statement whose kinds cannot work under
// LINEITEM's declared kinds is a semantic error, raised before any job
// is submitted, whether it runs or is only submitted; INT against FLOAT
// and division by zero still plan.
func TestSessionTypeErrors(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("types")
	for q, want := range map[string]string{
		"SELECT SUM(L_COMMENT) FROM lineitem":                                "hive: SUM over non-numeric column L_COMMENT",
		"SELECT L_ORDERKEY FROM lineitem WHERE L_SHIPMODE > 5 LIMIT 3":       "expr: cannot compare STRING with INT in (L_SHIPMODE > 5)",
		"SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY BETWEEN 'a' AND 5": "expr: cannot compare INT with STRING in (L_QUANTITY BETWEEN 'a' AND 5)",
		"SELECT L_ORDERKEY FROM lineitem WHERE L_TAX IN (0.01, 'x')":         "expr: cannot compare FLOAT with STRING in (L_TAX IN (0.01, 'x'))",
		"SELECT L_ORDERKEY FROM lineitem WHERE L_COMMENT + 1 > 2":            "expr: arithmetic on STRING and INT in (L_COMMENT + 1)",
		"SELECT L_ORDERKEY FROM lineitem WHERE -L_SHIPMODE < 0":              "expr: cannot negate STRING in (-L_SHIPMODE)",
		"SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY":                   "expr: INT value used as boolean in L_QUANTITY",
		"SELECT L_ORDERKEY FROM lineitem WHERE NOT L_TAX OR TRUE":            "expr: FLOAT value used as boolean in (NOT L_TAX)",
		"SELECT L_ORDERKEY FROM lineitem WHERE TRUE AND L_SHIPMODE":          "expr: STRING value used as boolean in (true AND L_SHIPMODE)",
	} {
		if _, err := s.Execute(q); err == nil || err.Error() != want {
			t.Errorf("Execute(%q): %v, want %q", q, err, want)
		}
		if _, _, err := s.SubmitAsync(q); err == nil || err.Error() != want {
			t.Errorf("SubmitAsync(%q): %v, want %q", q, err, want)
		}
	}
	if n := len(r.jt.Jobs()); n != 0 {
		t.Fatalf("semantic errors submitted %d jobs", n)
	}
	for _, q := range []string{
		"SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 49.5 AND NULL = L_SHIPMODE LIMIT 3",
		"SELECT L_ORDERKEY FROM lineitem WHERE L_EXTENDEDPRICE / (L_QUANTITY - L_QUANTITY) > 1 LIMIT 3",
		"SELECT AVG(L_QUANTITY), SUM(L_TAX) FROM lineitem WHERE L_SHIPDATE < '1995-01-01' OR NULL",
	} {
		sel, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.plan(sel.(*SelectStmt)); err != nil {
			t.Errorf("plan(%q): %v", q, err)
		}
	}
}

func TestSessionRepeatedOutputColumn(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("erin")
	for q, col := range map[string]string{
		"SELECT L_ORDERKEY, l_orderkey FROM lineitem WHERE L_QUANTITY > 50 LIMIT 3": "L_ORDERKEY",
		"EXPLAIN SELECT L_ORDERKEY, l_orderkey FROM lineitem LIMIT 3":               "L_ORDERKEY",
		"SELECT COUNT(*), COUNT(*) FROM lineitem":                                   "COUNT(*)",
		"SELECT SUM(L_QUANTITY), SUM(l_quantity) FROM lineitem":                     "SUM(L_QUANTITY)",
		"SELECT L_SHIPMODE, L_SHIPMODE, COUNT(*) FROM lineitem GROUP BY L_SHIPMODE": "L_SHIPMODE",
	} {
		_, err := s.Execute(q)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q appears more than once", col)) {
			t.Errorf("Execute(%q) = %v, want an error naming %q", q, err, col)
		}
	}
	res, err := s.Execute("SELECT COUNT(*) FROM lineitem")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("session after the errors: %v, %v", res, err)
	}
}

func TestSessionExplain(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("frank")
	res, err := s.Execute("EXPLAIN SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.11 LIMIT 100")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dynamic job", "POLICY: LA", "SAMPLE SIZE: 100", "INPUT PROVIDER", "40 partitions"} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("explain output missing %q:\n%s", want, res.Text)
		}
	}
}

func TestSessionShowAndDescribe(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("gina")
	res, err := s.Execute("SHOW TABLES")
	if err != nil || !strings.Contains(res.Text, "lineitem") {
		t.Fatalf("SHOW TABLES = %q, %v", res.Text, err)
	}
	res, err = s.Execute("DESCRIBE lineitem")
	if err != nil || !strings.Contains(res.Text, "L_SHIPMODE") {
		t.Fatalf("DESCRIBE = %q, %v", res.Text, err)
	}
}

func TestSessionDeadlineExceeded(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("hasty")
	// A deadline far below any job's runtime must error, not hang.
	s.Execute("SET hive.exec.deadline.seconds = 0.5")
	_, err := s.Execute("SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.11 LIMIT 5")
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want deadline error", err)
	}
	// Raising the deadline makes the same query succeed.
	s.Execute("SET hive.exec.deadline.seconds = 100000")
	if _, err := s.Execute("SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.11 LIMIT 5"); err != nil {
		t.Fatal(err)
	}
}

func TestSessionUserFlowsToJob(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("hank")
	res, err := s.Execute("SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.11 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Job.User != "hank" {
		t.Fatalf("job user = %q", res.Job.User)
	}
}

func TestSubmitAsync(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("ida")
	client, job, err := s.SubmitAsync("SELECT L_ORDERKEY FROM lineitem WHERE L_DISCOUNT = 0.11 LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	if client == nil || job.Done() {
		t.Fatal("job should be in flight")
	}
	if !mapreduce.RunUntilDone(r.eng, job, 1e7) {
		t.Fatal("async job did not finish")
	}
	if len(job.Output()) != 20 {
		t.Fatalf("output = %d", len(job.Output()))
	}
	if _, _, err := s.SubmitAsync("SET a = b"); err == nil {
		t.Fatal("SubmitAsync accepted non-SELECT")
	}
}
