package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRejectsBadFlagsBeforeRunning: an unknown -run name (a typo must
// not silently skip its artifact), an unknown or repeated -policies
// name, a -j below 1, a negative -scan-workers and each bad shared run
// flag exit with the documented status before any artifact prints a
// table.
func TestRejectsBadFlagsBeforeRunning(t *testing.T) {
	dir := t.TempDir()
	invalid := filepath.Join(dir, "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"rules": [{"name": "x", "kind": "nope"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-run", "figure9"}, 2, "tableI, tableII"},
		{[]string{"-run", "tableI,figur5"}, 2, `"figur5"`},
		{[]string{"-run", "tableI,figure5", "-policies", "FOO"}, 2, `"FOO"`},
		{[]string{"-run", "tableI", "-policies", "LA,LA"}, 2, "LA twice"},
		{[]string{"-run", "tableI", "-policies", "LA,la"}, 2, "LA twice"},
		{[]string{"-run", "tableI", "-j", "0"}, 2, "-j"},
		{[]string{"-run", "tableI", "-j", "-3"}, 2, "-j"},
		{[]string{"-run", "tableI", "-scan-workers", "-1"}, 2, "-scan-workers"},
		{[]string{"-run", "tableI", "-log-level", "loud"}, 2, "-log-level"},
		{[]string{"-run", "tableI", "-input-path", "fast"}, 2, "-input-path"},
		{[]string{"-run", "tableI", "-alert-rules", invalid}, 2, "-alert-rules"},
		{[]string{"-run", "tableI", "-alert-rules", filepath.Join(dir, "missing.json")}, 1, "-alert-rules"},
	} {
		var out, errOut bytes.Buffer
		code := run(c.args, &out, &errOut)
		if code != c.code || out.Len() != 0 || !strings.Contains(errOut.String(), c.msg) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d, no output, a message naming %s",
				c.args, code, out.String(), errOut.String(), c.code, c.msg)
		}
	}
}

// TestSelectPoliciesCanonical: -policies names match Table I
// case-insensitively and come back spelled as Table I spells them, in
// list order, so table columns and cell lookups agree.
func TestSelectPoliciesCanonical(t *testing.T) {
	got, err := selectPolicies("hadoop,la,Ha")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Hadoop", "LA", "HA"}; !slices.Equal(got, want) {
		t.Fatalf("selectPolicies = %v, want %v", got, want)
	}
}

// TestRunCreatesOutputDirs: the per-cell archive directory is created
// before the artifacts run, and -run matches names case-insensitively.
func TestRunCreatesOutputDirs(t *testing.T) {
	archives := filepath.Join(t.TempDir(), "a", "archives")
	var out bytes.Buffer
	if code := run([]string{"-run", "TABLEI", "-archive-out", archives}, &out, &bytes.Buffer{}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "Table I") {
		t.Errorf("table I not printed:\n%s", out.String())
	}
	if fi, err := os.Stat(archives); err != nil || !fi.IsDir() {
		t.Errorf("%s not created: %v", archives, err)
	}
}
