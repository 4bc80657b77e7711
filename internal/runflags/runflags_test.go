package runflags

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// open registers the flags in per-file (dynmr) mode, parses args and
// opens them.
func open(t *testing.T, args ...string) (*Outputs, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, false)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f.Open()
}

// TestOpenExitCodes: a bad value exits 2, an unreadable file 1, and a
// rejected flag creates no log file.
func TestOpenExitCodes(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "run.ndjson")
	invalid := filepath.Join(dir, "rules.json")
	if err := os.WriteFile(invalid, []byte(`{"rules": [{"name": "x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-log-level", "loud"}, 2},
		{[]string{"-input-path", "fast"}, 2},
		{[]string{"-alert-rules", invalid}, 2},
		{[]string{"-alert-rules", filepath.Join(dir, "missing.json")}, 1},
	} {
		_, err := open(t, append(c.args, "-log-out", log)...)
		if err == nil || ExitCode(err) != c.code {
			t.Errorf("%v: err %v, exit %d; want exit %d", c.args, err, ExitCode(err), c.code)
		}
		if _, err := os.Stat(log); err == nil {
			t.Fatalf("%v: log file created for a rejected flag", c.args)
		}
	}
}

// TestOpenCreatesOutputs: a per-file flag gets its directory created,
// and the log file is opened at the parsed level.
func TestOpenCreatesOutputs(t *testing.T) {
	dir := t.TempDir()
	archive := filepath.Join(dir, "out", "run.archive.gz")
	out, err := open(t, "-archive-out", archive, "-log-out", filepath.Join(dir, "run.ndjson"), "-log-level", "debug")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Log.Close()
	if fi, err := os.Stat(filepath.Dir(archive)); err != nil || !fi.IsDir() {
		t.Errorf("archive directory not created: %v", err)
	}
	if out.Log == nil || out.LogLevel.String() != "DEBUG" {
		t.Errorf("log %v at level %v", out.Log, out.LogLevel)
	}
}
