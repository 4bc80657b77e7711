package main

import (
	"flag"
	"strings"
	"testing"
)

// TestDatasetFlagsRejected: a bad value of each dataset flag is found
// before anything runs (cluster exits 2 on it) and named in the
// message; the defaults pass.
func TestDatasetFlagsRejected(t *testing.T) {
	parse := func(t *testing.T, args ...string) *runFlags {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		rf := newRunFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return rf
	}
	for _, c := range []struct{ flag, value string }{
		{"rows", "-5"},
		{"scale", "0"},
		{"skew", "-1"},
		{"skew", "0.5"},
	} {
		t.Run(c.flag+"="+c.value, func(t *testing.T) {
			err := parse(t, "-"+c.flag, c.value).checkDataset()
			if err == nil || !strings.Contains(err.Error(), "-"+c.flag) {
				t.Errorf("err %v, want one naming -%s", err, c.flag)
			}
		})
	}
	if err := parse(t, "-rows", "0", "-skew", "2").checkDataset(); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
}
