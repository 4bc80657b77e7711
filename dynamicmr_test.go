package dynamicmr

import (
	"math"
	"strings"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/core"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/obs"
)

func clusterConfigZero() cluster.Config { return cluster.Config{} }

func demoCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 1, Skew: 1, Selectivity: 0.002, Rows: 200_000, Partitions: 40, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterDefaults(t *testing.T) {
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() != 0 {
		t.Fatal("clock not at zero")
	}
	if got := c.JobTracker().ClusterStatus().TotalMapSlots; got != 40 {
		t.Fatalf("TotalMapSlots = %d, want 40 (paper testbed)", got)
	}
	if len(c.Policies().Names()) != 5 {
		t.Fatal("Table I policies missing")
	}
}

func TestNewClusterInvalidHardware(t *testing.T) {
	if _, err := NewCluster(WithHardware(clusterConfigZero())); err == nil {
		t.Fatal("invalid hardware accepted")
	}
}

func TestMultiUserOption(t *testing.T) {
	c, err := NewCluster(WithMultiUserSlots())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.JobTracker().ClusterStatus().TotalMapSlots; got != 160 {
		t.Fatalf("TotalMapSlots = %d, want 160", got)
	}
}

func TestLoadAndQuery(t *testing.T) {
	c := demoCluster(t)
	if got := c.Tables(); len(got) != 1 || got[0] != "lineitem" {
		t.Fatalf("Tables = %v", got)
	}
	res, err := c.Query("SELECT L_ORDERKEY, L_PARTKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Job == nil || res.Job.ResponseTime() <= 0 {
		t.Fatal("no job metadata")
	}
	if c.Now() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestSampleDirectAPI(t *testing.T) {
	c := demoCluster(t)
	res, err := c.Sample("lineitem", "L_QUANTITY > 50", 25, core.PolicyC, []string{"L_ORDERKEY"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Client == nil || res.Client.Policy().Name != core.PolicyC {
		t.Fatal("policy not honoured")
	}
	for _, r := range res.Rows {
		if r.Len() != 1 {
			t.Fatalf("projection not applied: %v", r)
		}
	}
	// Default policy restored for subsequent queries.
	if got := c.Session("default").Get(mapreduce.ConfDynamicPolicy, ""); got != "LA" {
		t.Fatalf("policy override leaked: %q", got)
	}
}

func TestSampleUnknownPolicy(t *testing.T) {
	c := demoCluster(t)
	if _, err := c.Sample("lineitem", "L_QUANTITY > 50", 5, "nope", nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSessionsAreSticky(t *testing.T) {
	c := demoCluster(t)
	s1 := c.Session("alice")
	s1.Set("dynamic.job.policy", "HA")
	if c.Session("alice") != s1 {
		t.Fatal("session not reused")
	}
	if c.Session("bob") == s1 {
		t.Fatal("sessions shared across users")
	}
}

func TestWithFairScheduler(t *testing.T) {
	c, err := NewCluster(WithFairScheduler())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.JobTracker().Scheduler().Name(); got != "fair" {
		t.Fatalf("scheduler = %q", got)
	}
}

func TestParsePolicyXMLFacade(t *testing.T) {
	doc, err := core.DefaultRegistry().PolicyXML()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := ParsePolicyXML(doc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(WithPolicies(reg))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Policies().Names()) != 5 {
		t.Fatal("custom registry not applied")
	}
}

// TestQueryOutOfRangeGrabLimit drives policy.xml grab limits outside
// int range through the whole stack: a NaN limit fails the query, and a
// finite one beyond math.MaxInt runs it unbounded. Both used to panic
// Query on a negative slice bound.
func TestQueryOutOfRangeGrabLimit(t *testing.T) {
	reg, err := ParsePolicyXML([]byte(`<policies>
  <policy name="nan"><evaluationIntervalSeconds>4</evaluationIntervalSeconds><grabLimit>inf-inf</grabLimit></policy>
  <policy name="huge"><evaluationIntervalSeconds>4</evaluationIntervalSeconds><grabLimit>TS*1e18</grabLimit></policy>
</policies>`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(WithPolicies(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 1, Skew: 1, Selectivity: 0.002, Rows: 200_000, Partitions: 40, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 50 LIMIT 10"
	c.Session("default").Set("dynamic.job.policy", "huge")
	res, err := c.Query(q)
	if err != nil {
		t.Fatalf("huge grab limit: %v", err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("huge grab limit: rows = %d, want 10", len(res.Rows))
	}
	c.Session("default").Set("dynamic.job.policy", "nan")
	if _, err := c.Query(q); err == nil {
		t.Fatal("NaN grab limit: query succeeded, want an error")
	}
}

func TestDuplicateTable(t *testing.T) {
	c := demoCluster(t)
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{Scale: 1, Rows: 1000, Partitions: 2}); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

// TestLoadLineItemRejectsBadGeometry: a negative partition count and a
// NaN selectivity are errors, not a panic and not a table without
// planted matches, and no table of either name is registered.
func TestLoadLineItemRejectsBadGeometry(t *testing.T) {
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]DatasetSpec{
		"negative_partitions": {Scale: 1, Rows: 1000, Partitions: -1},
		"nan_selectivity":     {Scale: 1, Rows: 1000, Partitions: 2, Selectivity: math.NaN()},
	} {
		if _, err := c.LoadLineItem(name, spec); err == nil {
			t.Errorf("%s: LoadLineItem accepted %+v", name, spec)
		}
		if _, err := c.Query("SELECT L_ORDERKEY FROM " + name + " LIMIT 1"); err == nil {
			t.Errorf("%s: the rejected table is queryable", name)
		}
	}
}

// TestLoadSharesDataset: one built dataset backs a table in two
// clusters, which answer the same query alike, and Load refuses a
// table name already taken.
func TestLoadSharesDataset(t *testing.T) {
	ds, err := dataset.Build(dataset.Spec{
		Name: "lineitem", Scale: 1, Z: 1, Selectivity: 0.002, Partitions: 40, RowsOverride: 200_000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT L_ORDERKEY FROM lineitem WHERE " + ds.Predicate().String() + " LIMIT 50"
	var got [2]string
	for i := range got {
		c, err := NewCluster()
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.Load("lineitem", ds)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Blocks) != ds.NumPartitions() || f.TotalRecords() != ds.TotalRows() {
			t.Fatalf("file has %d blocks of %d records, dataset %d partitions of %d rows",
				len(f.Blocks), f.TotalRecords(), ds.NumPartitions(), ds.TotalRows())
		}
		res, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 50 {
			t.Fatalf("rows = %d, want 50", len(res.Rows))
		}
		for _, r := range res.Rows {
			got[i] += r.String() + "\n"
		}
		if _, err := c.Load("lineitem", ds); err == nil {
			t.Fatal("duplicate table accepted")
		}
	}
	if got[0] != got[1] {
		t.Fatal("two clusters over one dataset answered differently")
	}
}

// TestSampledTracedClusterPollsFirst: a traced cluster built with the
// utilization sampler arms the §V-D poll before the sampler, so at
// every 30 s instant they share the poll fires first. A driver that
// steps until the clock reaches 60 s, as workload.Run stops at the end
// of its window, has the poll's 60 s reading while the sampler's 60 s
// snapshot is still to come. An untraced sampled cluster starts no
// poll, whose reads settle the accounts they read.
func TestSampledTracedClusterPollsFirst(t *testing.T) {
	c, err := NewCluster(WithTracing(), WithUtilizationSampling(mapreduce.UtilizationIntervalS))
	if err != nil {
		t.Fatal(err)
	}
	for c.Now() < 60 {
		if !c.Engine().Step() {
			t.Fatal("event queue drained")
		}
	}
	if tl := c.JobTracker().UtilizationTimeline(); len(tl) != 2 || tl[0].Time != 30 || tl[1].Time != 60 {
		t.Fatalf("poll readings %+v, want readings at 30 s and 60 s", tl)
	}
	if n := len(c.Sampler().Snapshots()); n != 1 {
		t.Fatalf("sampler snapshots at the poll's 60 s reading = %d, want 1", n)
	}

	c, err = NewCluster(WithUtilizationSampling(mapreduce.UtilizationIntervalS))
	if err != nil {
		t.Fatal(err)
	}
	c.Engine().RunUntil(65)
	if n := len(c.JobTracker().UtilizationTimeline()); n != 0 {
		t.Fatalf("untraced sampled cluster polled %d times", n)
	}
}

// TestPollAndSamplerShareOneAccount: the §V-D poll and the obs sampler
// turn one slot account into interval means with one reader
// (mapreduce.UtilizationCursor), so at every 30 s instant they share,
// the poll's reading equals the snapshot's cluster means exactly — CPU,
// disk and slot occupancy alike.
func TestPollAndSamplerShareOneAccount(t *testing.T) {
	c, err := NewCluster(WithTracing(), WithUtilizationSampling(mapreduce.UtilizationIntervalS))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 1, Skew: 1, Selectivity: 0.002, Rows: 200_000, Partitions: 40, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	policies := []string{core.PolicyHadoop, core.PolicyLA, core.PolicyHA}
	for i := 0; c.Now() < 5*mapreduce.UtilizationIntervalS; i++ {
		if _, err := c.Sample("lineitem", "L_QUANTITY > 50", 300, policies[i%len(policies)], nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Engine().RunUntil(c.Now() + mapreduce.UtilizationIntervalS)
	snaps := make(map[float64]obs.Snapshot)
	for _, s := range c.Sampler().Snapshots() {
		snaps[s.Time] = s
	}
	shared, loaded := 0, 0
	for _, p := range c.JobTracker().UtilizationTimeline() {
		s, ok := snaps[p.Time]
		if !ok {
			continue
		}
		shared++
		if p.SlotOccupancyPct > 0 && p.SlotOccupancyPct < 100 {
			loaded++
		}
		if p.CPUUtilPct != s.CPUUtilPct || p.DiskReadKBs != s.DiskReadKBs || p.SlotOccupancyPct != s.MapSlotPct {
			t.Errorf("at %v s the poll read %+v, the snapshot CPU %v, disk %v, map slots %v",
				p.Time, p, s.CPUUtilPct, s.DiskReadKBs, s.MapSlotPct)
		}
	}
	if loaded < 3 {
		t.Fatalf("%d shared instants, %d under partial load; want at least 3 under load", shared, loaded)
	}
}

// TestHeadlineProperty verifies the paper's central claim end to end
// through the public API: dynamic sampling response times depend on
// the sample size, not the dataset size, while static (Hadoop-policy)
// response times grow with the data.
func TestHeadlineProperty(t *testing.T) {
	var dynTimes, statTimes []float64
	for _, scale := range []int{2, 4, 8} {
		c, err := NewCluster()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.LoadLineItem("lineitem", DatasetSpec{
			Scale: scale, Skew: 0, Selectivity: 0.005,
			Rows: int64(scale) * 400_000, Seed: 7,
		}); err != nil {
			t.Fatal(err)
		}
		dyn, err := c.Sample("lineitem", "L_DISCOUNT = 0.11", 200, "LA", nil)
		if err != nil {
			t.Fatal(err)
		}
		stat, err := c.Sample("lineitem", "L_DISCOUNT = 0.11", 200, "Hadoop", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(dyn.Rows) != 200 || len(stat.Rows) != 200 {
			t.Fatalf("scale %d: samples %d/%d", scale, len(dyn.Rows), len(stat.Rows))
		}
		dynTimes = append(dynTimes, dyn.Job.ResponseTime())
		statTimes = append(statTimes, stat.Job.ResponseTime())
	}
	// Static response grows with scale; dynamic stays within 2x of its
	// smallest-scale value while the data grew 4x.
	if statTimes[2] <= statTimes[0]*1.5 {
		t.Errorf("static times did not grow with data: %v", statTimes)
	}
	if dynTimes[2] > dynTimes[0]*2 {
		t.Errorf("dynamic times grew with data: %v", dynTimes)
	}
}

func TestEstimateSelectivity(t *testing.T) {
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	// True selectivity 2%: 8000 matches in 400k rows over 40 partitions.
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 1, Skew: 0, Selectivity: 0.02, Rows: 400_000, Partitions: 40, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	est, err := c.EstimateSelectivity("lineitem", "L_DISCOUNT = 0.11", 0.1, "LA")
	if err != nil {
		t.Fatal(err)
	}
	if est.Selectivity < 0.015 || est.Selectivity > 0.025 {
		t.Fatalf("estimate %v far from true 0.02", est.Selectivity)
	}
	if est.PartitionsProcessed >= 40 {
		t.Fatalf("estimation scanned all %d partitions — no savings", est.PartitionsProcessed)
	}
	if est.Records == 0 || est.Matches == 0 {
		t.Fatalf("empty observation: %+v", est)
	}
	if est.ResponseTime <= 0 {
		t.Fatal("no response time")
	}
}

// TestEstimateSelectivityOneSetOfCounters checks that the returned
// relative error is the interval of the returned estimate: both come
// from the job's final counters. Under HA the first grab takes all 40
// partitions, so the stopping rule never sees a finished map; an error
// taken from its last evaluation would read 0.
func TestEstimateSelectivityOneSetOfCounters(t *testing.T) {
	c, err := NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadLineItem("lineitem", DatasetSpec{
		Scale: 1, Skew: 0, Selectivity: 0.02, Rows: 400_000, Partitions: 40, Seed: 3,
	}); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"LA", "HA"} {
		est, err := c.EstimateSelectivity("lineitem", "L_DISCOUNT = 0.11", 0.1, policy)
		if err != nil {
			t.Fatal(err)
		}
		p := float64(est.Matches) / float64(est.Records)
		want := 1.96 * math.Sqrt(p*(1-p)/float64(est.Records)) / p
		if est.Selectivity != p || math.Abs(est.RelativeError-want) > 1e-12 {
			t.Errorf("%s: selectivity %v and relative error %v, want %v and %v from %d matches in %d records",
				policy, est.Selectivity, est.RelativeError, p, want, est.Matches, est.Records)
		}
	}
}

func TestEstimateSelectivityErrors(t *testing.T) {
	c := demoCluster(t)
	if _, err := c.EstimateSelectivity("nope", "L_DISCOUNT = 0.11", 0.1, ""); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := c.EstimateSelectivity("lineitem", "NOPE = 1", 0.1, ""); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := c.EstimateSelectivity("lineitem", "L_DISCOUNT <", 0.1, ""); err == nil {
		t.Error("malformed predicate accepted")
	}
	if _, err := c.EstimateSelectivity("lineitem", "L_DISCOUNT = 0.11", 0.1, "bogus"); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestQueryExplainThroughFacade(t *testing.T) {
	c := demoCluster(t)
	res, err := c.Query("EXPLAIN SELECT * FROM lineitem WHERE L_QUANTITY > 50 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "dynamic job") {
		t.Fatalf("explain:\n%s", res.Text)
	}
}
