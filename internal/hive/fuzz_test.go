package hive

import (
	"strings"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/sim"
	"dynamicmr/internal/tpch"
)

// FuzzParse checks that Parse never panics, that an accepted statement
// re-renders to a fixpoint, and that semantic analysis (Session.plan)
// of a SELECT, or of an EXPLAIN's SELECT, returns a plan or an error
// and never panics. A statement that plans never meets a kind error at
// run time: its scan, or its aggregate map over a generated partition,
// fails with nothing but division by zero. A query over lineitem then filters a generated
// partition of about 2,000 rows the same through expr.ScanFilter
// (bound, compiled, late-materialising) as through a plain Scan with
// EvalBool and Record.Project: the same rows in the same order, and the
// same error. A plan of plain columns brings its predicate (TRUE
// without a WHERE) and its projection; otherwise the WHERE runs alone
// and yields whole rows.
func FuzzParse(f *testing.F) {
	for _, q := range []string{
		"SELECT L_ORDERKEY, L_LINENUMBER FROM lineitem WHERE L_QUANTITY BETWEEN 12 AND 16 AND L_DISCOUNT <= 0.03 LIMIT 10",
		"SELECT * FROM lineitem WHERE L_SHIPMODE = 'DRONE' OR NOT L_TAX > 0.05",
		"SELECT COUNT(*), MAX(L_TAX) FROM lineitem WHERE -5 < L_QUANTITY - 10 GROUP BY L_SHIPMODE",
		"SELECT L_ORDERKEY FROM lineitem WHERE L_COMMENT LIKE '%foxes%' AND L_LINESTATUS NOT IN ('O', 'X')",
		"SELECT L_ORDERKEY FROM lineitem WHERE L_SHIPDATE BETWEEN '1995-01-01' AND '1995-12-31' ORDER BY L_ORDERKEY DESC",
		"SELECT L_ORDERKEY FROM lineitem WHERE 50 < L_QUANTITY OR L_EXTENDEDPRICE / 0 > 1",
		"SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY = 'x'",
		"EXPLAIN SELECT L_ORDERKEY FROM lineitem WHERE L_RETURNFLAG != 'N' LIMIT 5",
		"SELECT L_ORDERKEY FROM lineitem WHERE L_EXTENDEDPRICE < 1000000000000000000000.5 AND L_ORDERKEY != 9223372036854775808",
		"SET dynamic.job.policy = LA",
		"SET a = 'it''s -- not a comment'",
		"SHOW TABLES",
		"DESCRIBE lineitem",
	} {
		f.Add(q)
	}
	ds, err := dataset.Build(dataset.Spec{Scale: 1, Seed: 3, Z: 1, Partitions: 4, RowsOverride: 8_000, Selectivity: 0.01})
	if err != nil {
		f.Fatal(err)
	}
	part := ds.Partition(0)
	srcs := make([]data.Source, ds.NumPartitions())
	for i, p := range ds.Partitions() {
		srcs[i] = p
	}
	file, err := dfs.New(cluster.New(sim.NewEngine(), cluster.PaperConfig())).Create("lineitem", srcs, 1)
	if err != nil {
		f.Fatal(err)
	}
	catalog := NewCatalog()
	if err := catalog.Register(&Table{Name: "lineitem", Schema: tpch.LineItemSchema, File: file}); err != nil {
		f.Fatal(err)
	}
	session := NewSession(nil, catalog, nil, "fuzz")
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql)
		if err != nil {
			return
		}
		first := st.String()
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("rendering %q of %q does not parse: %v", first, sql, err)
		}
		if second := again.String(); second != first {
			t.Fatalf("rendering of %q is no fixpoint:\n%s\n%s", sql, first, second)
		}
		var sel *SelectStmt
		switch s := st.(type) {
		case *SelectStmt:
			sel = s
		case *ExplainStmt:
			sel = s.Select
		}
		if sel == nil {
			return
		}
		plan, planErr := session.plan(sel)
		if planErr == nil && plan.agg != nil {
			m := &aggMapper{plan: plan.agg}
			if err := m.MapSplit(&mapreduce.TaskContext{Source: part}, &mapreduce.Collector{}); !runtimeOnly(err) {
				t.Fatalf("%q plans, but its aggregate map fails: %v", sql, err)
			}
		}
		pred, proj := sel.Where, (*data.Schema)(nil)
		if planErr == nil && plan.agg == nil {
			pred, proj = plan.pred, plan.projection
		}
		if pred == nil || !strings.EqualFold(sel.Table, "lineitem") {
			return
		}
		var got []data.Record
		gotErr := expr.ScanFilter(part, pred, proj, func(r data.Record) bool {
			got = append(got, r)
			return true
		})
		var want []data.Record
		var wantErr error
		part.Scan(func(r data.Record) bool {
			ok, err := expr.EvalBool(pred, r)
			if err != nil {
				wantErr = err
				return false
			}
			if ok {
				if proj != nil {
					r = r.Project(proj)
				}
				want = append(want, r)
			}
			return true
		})
		if planErr == nil && !runtimeOnly(gotErr) {
			t.Fatalf("%q plans, but its scan fails: %v", sql, gotErr)
		}
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("WHERE %s: ScanFilter error %q, Scan + EvalBool %q", pred, errText(gotErr), errText(wantErr))
		}
		if render(got) != render(want) {
			t.Fatalf("WHERE %s, projection %v: ScanFilter yields %d rows, Scan + EvalBool + Project %d, or other rows",
				pred, proj != nil, len(got), len(want))
		}
	})
}

// runtimeOnly reports whether err is nil or the one error a statement
// that plans may still meet at run time: division by zero.
func runtimeOnly(err error) bool {
	return err == nil || err.Error() == "expr: division by zero"
}

// render lists records one a line, each after its schema's columns.
func render(recs []data.Record) string {
	var b strings.Builder
	for _, r := range recs {
		b.WriteString(strings.Join(r.Schema().Columns(), ","))
		b.WriteByte('\t')
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
