package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRowsRejectsBadFlags: a non-positive -scale or an -n outside the
// table exits 2 with a message before any row is printed, instead of
// panicking in the generator (after printing every valid row).
func TestRowsRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"rows", "-scale", "0"},
		{"rows", "-scale", "-3"},
		{"rows", "-scale", "1", "-n", "6000001"},
		{"rows", "-scale", "1", "-n", "-1"},
		{"info", "-scale", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "mkdata: -") {
			t.Errorf("%v: exit %d, stdout %d bytes, stderr %q; want 2, nothing, a message", args, code, out.Len(), errOut.String())
		}
	}
	var out bytes.Buffer
	if code := run([]string{"rows", "-scale", "1", "-n", "2"}, &out, &bytes.Buffer{}); code != 0 || strings.Count(out.String(), "\n") != 3 {
		t.Errorf("rows -n 2: exit %d, output:\n%s", code, out.String())
	}
}
