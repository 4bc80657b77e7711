package main

import (
	"errors"
	"flag"
	"strings"
	"testing"
)

// TestDatasetFlagsRejected: a bad value of each dataset flag, and of
// each sampling flag serve and explain take, is found before anything
// runs (cluster and serve/explain exit 2 on it) and named in the
// message; the defaults and the edge values pass.
func TestDatasetFlagsRejected(t *testing.T) {
	check := func(t *testing.T, args ...string) error {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		rf := newRunFlags(fs)
		sf := newSampleFlags(fs, 1)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return errors.Join(rf.checkDataset(), sf.check())
	}
	for _, c := range []struct{ flag, value string }{
		{"rows", "-5"},
		{"scale", "0"},
		{"skew", "-1"},
		{"skew", "0.5"},
		{"k", "0"},
		{"k", "-5"},
		{"policy", "NOPE"},
		{"queries", "-1"},
	} {
		t.Run(c.flag+"="+c.value, func(t *testing.T) {
			err := check(t, "-"+c.flag, c.value)
			if err == nil || !strings.Contains(err.Error(), "-"+c.flag) {
				t.Errorf("err %v, want one naming -%s", err, c.flag)
			}
		})
	}
	if err := check(t); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
	for _, args := range [][]string{
		{"-rows", "0", "-skew", "2", "-k", "1", "-queries", "0"},
		{"-policy", "hadoop"},
		{"-policy", "ADAPTIVE"},
	} {
		if err := check(t, args...); err != nil {
			t.Errorf("%v rejected: %v", args, err)
		}
	}
}

// TestTopFlagsRejected: a non-positive -interval-ms, which would make
// -follow re-fetch in a tight loop, is found before anything is fetched
// (top exits 2 on it) and named in the message; the default and 1 pass.
func TestTopFlagsRejected(t *testing.T) {
	check := func(t *testing.T, args ...string) error {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		tf := newTopFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return tf.check()
	}
	for _, v := range []string{"0", "-1"} {
		if err := check(t, "-follow", "-interval-ms", v); err == nil || !strings.Contains(err.Error(), "-interval-ms") {
			t.Errorf("-interval-ms %s: err %v, want one naming -interval-ms", v, err)
		}
	}
	for _, args := range [][]string{nil, {"-follow", "-interval-ms", "1"}} {
		if err := check(t, args...); err != nil {
			t.Errorf("%v rejected: %v", args, err)
		}
	}
}
