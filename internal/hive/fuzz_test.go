package hive

import (
	"strings"
	"testing"

	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/expr"
)

// FuzzParse checks that Parse never panics, that an accepted statement
// re-renders to a fixpoint, and that a WHERE over lineitem filters a
// generated partition of about 2,000 rows the same through
// expr.ScanFilter (bound, compiled, late-materialising) as through a
// plain Scan with EvalBool: the same rows in the same order, and the
// same error.
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
		if sel == nil || sel.Where == nil || !strings.EqualFold(sel.Table, "lineitem") {
			return
		}
		var got []string
		gotErr := expr.ScanFilter(part, sel.Where, func(r data.Record) bool {
			got = append(got, r.String())
			return true
		})
		var want []string
		var wantErr error
		part.Scan(func(r data.Record) bool {
			ok, err := expr.EvalBool(sel.Where, r)
			if err != nil {
				wantErr = err
				return false
			}
			if ok {
				want = append(want, r.String())
			}
			return true
		})
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("WHERE %s: ScanFilter error %q, Scan + EvalBool %q", sel.Where, errText(gotErr), errText(wantErr))
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("WHERE %s: ScanFilter yields %d rows, Scan + EvalBool %d, or in another order",
				sel.Where, len(got), len(want))
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
