package main

import (
	"strings"
	"testing"

	"dynamicmr"
)

// TestShellContinuesAfterError: a statement that fails semantic
// analysis prints its error, and the shell runs the statements after it.
func TestShellContinuesAfterError(t *testing.T) {
	c, err := dynamicmr.NewCluster()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.LoadLineItem("lineitem", dynamicmr.DatasetSpec{Scale: 1, Rows: 80_000, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader("SELECT L_ORDERKEY, l_orderkey FROM lineitem WHERE L_QUANTITY > 50 LIMIT 3;\n" +
		"SELECT COUNT(*), COUNT(*) FROM lineitem;\n" +
		"SELECT L_ORDERKEY FROM lineitem WHERE L_QUANTITY > 40 LIMIT 2;\n")
	var out, errOut strings.Builder
	shell(c, in, &out, &errOut, 20)
	if got := strings.Count(errOut.String(), "appears more than once"); got != 2 {
		t.Errorf("errors printed:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "L_ORDERKEY\n") || !strings.Contains(out.String(), "-- 2 row(s)") {
		t.Errorf("the statement after the errors did not run:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "dynmr> "); got != 4 {
		t.Errorf("%d prompts, want 4:\n%s", got, out.String())
	}
}
