package hive

import (
	"math"
	"strings"
	"testing"

	"dynamicmr/internal/data"
)

func TestParseAggregates(t *testing.T) {
	sel := parseSelect(t,
		"SELECT L_RETURNFLAG, COUNT(*), SUM(L_QUANTITY), AVG(L_DISCOUNT), MIN(L_SHIPDATE), MAX(L_TAX) "+
			"FROM lineitem GROUP BY L_RETURNFLAG")
	if !sel.HasAggregates() {
		t.Fatal("aggregates not detected")
	}
	if len(sel.Items) != 6 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if sel.Items[1].Agg != "COUNT" || sel.Items[1].AggCol != "" {
		t.Fatalf("COUNT(*) parsed as %+v", sel.Items[1])
	}
	if sel.Items[2].Agg != "SUM" || sel.Items[2].AggCol != "L_QUANTITY" {
		t.Fatalf("SUM parsed as %+v", sel.Items[2])
	}
	if len(sel.GroupBy) != 1 || sel.GroupBy[0] != "L_RETURNFLAG" {
		t.Fatalf("group by = %v", sel.GroupBy)
	}
	// Print/reparse fixpoint for aggregate queries.
	s2 := parseSelect(t, sel.String())
	if sel.String() != s2.String() {
		t.Fatalf("fixpoint:\n%s\n%s", sel, s2)
	}
}

func TestParseAggregateErrors(t *testing.T) {
	bad := []string{
		"SELECT SUM(*) FROM t",
		"SELECT COUNT( FROM t",
		"SELECT COUNT(5) FROM t",
		"SELECT AVG() FROM t",
		"SELECT a FROM t GROUP BY",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) accepted", q)
		}
	}
}

func TestAggregateCountQuery(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("anna")
	res, err := s.Execute("SELECT COUNT(*) FROM lineitem WHERE L_DISCOUNT = 0.11")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	got := res.Rows[0].MustGet("COUNT(*)").AsInt()
	if got != r.ds.TotalMatches() {
		t.Fatalf("COUNT(*) = %d, want %d", got, r.ds.TotalMatches())
	}
	if res.Client != nil {
		t.Fatal("aggregate query must run statically")
	}
}

func TestAggregateCountAll(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("ben")
	res, err := s.Execute("SELECT COUNT(*) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].At(0).AsInt(); got != r.ds.TotalRows() {
		t.Fatalf("COUNT(*) = %d, want %d", got, r.ds.TotalRows())
	}
}

func TestAggregateGroupBy(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("cleo")
	res, err := s.Execute(
		"SELECT L_RETURNFLAG, COUNT(*) FROM lineitem GROUP BY L_RETURNFLAG")
	if err != nil {
		t.Fatal(err)
	}
	// Natural returnflags are R, A, N.
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3: %v", len(res.Rows), res.Rows)
	}
	var total int64
	flags := map[string]bool{}
	for _, row := range res.Rows {
		flags[row.MustGet("L_RETURNFLAG").AsString()] = true
		total += row.MustGet("COUNT(*)").AsInt()
	}
	if total != r.ds.TotalRows() {
		t.Fatalf("group counts sum %d, want %d", total, r.ds.TotalRows())
	}
	for _, f := range []string{"R", "A", "N"} {
		if !flags[f] {
			t.Fatalf("missing group %q", f)
		}
	}
}

func TestAggregateSumAvgMinMax(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("dora")
	res, err := s.Execute(
		"SELECT COUNT(L_QUANTITY), SUM(L_QUANTITY), AVG(L_QUANTITY), MIN(L_QUANTITY), MAX(L_QUANTITY) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	cnt := row.MustGet("COUNT(L_QUANTITY)").AsInt()
	sum := row.MustGet("SUM(L_QUANTITY)").AsFloat()
	avg := row.MustGet("AVG(L_QUANTITY)").AsFloat()
	minv := row.MustGet("MIN(L_QUANTITY)").AsInt()
	maxv := row.MustGet("MAX(L_QUANTITY)").AsInt()
	if cnt != r.ds.TotalRows() {
		t.Fatalf("count = %d", cnt)
	}
	if math.Abs(avg-sum/float64(cnt)) > 1e-9 {
		t.Fatalf("avg %v inconsistent with sum/count %v", avg, sum/float64(cnt))
	}
	// Natural quantities are 1..50 (none planted at z=0).
	if minv != 1 || maxv != 50 {
		t.Fatalf("min/max = %d/%d, want 1/50", minv, maxv)
	}
	if avg < 24 || avg > 27 {
		t.Fatalf("avg quantity = %v, expected ≈25.5", avg)
	}
}

func TestAggregateSemanticErrors(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("errs")
	for _, q := range []string{
		"SELECT L_RETURNFLAG, COUNT(*) FROM lineitem",             // col not grouped
		"SELECT COUNT(*) FROM lineitem GROUP BY NOPE",             // unknown group col
		"SELECT SUM(NOPE) FROM lineitem",                          // unknown agg col
		"SELECT L_RETURNFLAG FROM lineitem GROUP BY L_RETURNFLAG", // group by without aggregates
		"SELECT SUM(L_SHIPMODE) FROM lineitem",                    // non-numeric sum
		"SELECT SUM(L_COMMENT) FROM lineitem",                     // non-numeric sum
		"SELECT AVG(L_SHIPDATE) FROM lineitem GROUP BY L_TAX",     // non-numeric average
		"SELECT COUNT(*) FROM lineitem WHERE L_SHIPMODE > 5",      // ill-typed WHERE
	} {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("Execute(%q) succeeded", q)
		}
	}
	if n := len(r.jt.Jobs()); n != 0 {
		t.Fatalf("semantic errors submitted %d jobs", n)
	}
}

func TestAggregateWithLimit(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("lim")
	res, err := s.Execute(
		"SELECT L_LINENUMBER, COUNT(*) FROM lineitem GROUP BY L_LINENUMBER LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want LIMIT 2", len(res.Rows))
	}
}

func TestAggregateExplain(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("exp")
	res, err := s.Execute("EXPLAIN SELECT L_RETURNFLAG, AVG(L_TAX) FROM lineitem GROUP BY L_RETURNFLAG")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "AGGREGATE") || !strings.Contains(res.Text, "GROUP BY: L_RETURNFLAG") {
		t.Fatalf("explain:\n%s", res.Text)
	}
	if !strings.Contains(res.Text, "static job") {
		t.Fatalf("aggregates should plan statically:\n%s", res.Text)
	}
}

func TestAggregateUsesCombiner(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("comb")
	res, err := s.Execute("SELECT COUNT(*) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	// With 40 map tasks and one group, the combiner collapses each
	// task's output to a single partial: reduce input = 40 pairs.
	if res.Job.Counters.ReduceInputRecs != 40 {
		t.Fatalf("reduce input = %d, want 40 partials", res.Job.Counters.ReduceInputRecs)
	}
}

func TestAggregateAcceleratedMatchesScan(t *testing.T) {
	// COUNT over the planted predicate uses the accelerated path; the
	// result must equal the planted count (which the scan path also
	// produces — equivalence of the paths is covered in dataset tests).
	r := newSessionRig(t, 2)
	s := r.session("acc")
	res, err := s.Execute("SELECT COUNT(*) FROM lineitem WHERE L_SHIPMODE = 'DRONE'")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].At(0).AsInt(); got != r.ds.TotalMatches() {
		t.Fatalf("accelerated COUNT = %d, want %d", got, r.ds.TotalMatches())
	}
}

func TestAggregateAvgEmptyIsNull(t *testing.T) {
	r := newSessionRig(t, 0)
	s := r.session("nul")
	res, err := s.Execute("SELECT AVG(L_QUANTITY), COUNT(*) FROM lineitem WHERE L_QUANTITY > 50")
	if err != nil {
		t.Fatal(err)
	}
	// z=0 dataset has no L_QUANTITY > 50 rows at all... but also no
	// matching rows means the reduce gets zero pairs and emits nothing.
	if len(res.Rows) != 0 {
		// Acceptable alternative: one row with NULL avg and 0 count.
		row := res.Rows[0]
		if !row.At(0).IsNull() || row.At(1).AsInt() != 0 {
			t.Fatalf("empty aggregate row = %v", row)
		}
	}
	_ = data.Null()
}
