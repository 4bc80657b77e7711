package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dynamicmr"
	"dynamicmr/internal/core"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/runarchive"
	"dynamicmr/internal/runflags"
)

// datasetSeed seeds every mode's generated LINEITEM table.
const datasetSeed = 42

// runFlags is the run configuration the shell, serve and explain modes
// share: the dataset, the cluster, and the run flags common to both
// binaries (internal/runflags), whose files are written at exit. Each
// mode registers it on its FlagSet, builds its cluster with cluster and
// ends with one call to finish.
type runFlags struct {
	*runflags.Flags
	scale     int
	skew      float64
	rows      int64
	multiuser bool
	fair      bool

	logFile *os.File
}

// newRunFlags registers the run flags on fs.
func newRunFlags(fs *flag.FlagSet) *runFlags {
	rf := &runFlags{Flags: runflags.Register(fs, false)}
	fs.IntVar(&rf.scale, "scale", 1, "TPC-H scale factor of the generated LINEITEM table")
	fs.Float64Var(&rf.skew, "skew", 1, "Zipf exponent of the planted-match distribution (0, 1 or 2)")
	fs.Int64Var(&rf.rows, "rows", 2_000_000, "row-count override (0 = full 6M x scale)")
	fs.BoolVar(&rf.multiuser, "multiuser", false, "use the 16-map-slots-per-node configuration")
	fs.BoolVar(&rf.fair, "fair", false, "use the Fair Scheduler instead of FIFO")
	return rf
}

// cluster builds the cluster the flags describe, with the mode's own
// options appended (so they override the flags' defaults), and loads
// the LINEITEM table. A bad run flag exits 2 and an I/O error 1 before
// anything runs. -archive-out turns on query stats (and with them
// tracing) and the utilization sampler, so every `dynmr render` kind
// finds its section.
func (rf *runFlags) cluster(mode ...dynamicmr.Option) (*dynamicmr.Cluster, *dataset.Dataset) {
	if err := rf.checkDataset(); err != nil {
		usage(err)
	}
	out, err := rf.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynmr:", err)
		os.Exit(runflags.ExitCode(err))
	}
	opts := []dynamicmr.Option{dynamicmr.WithInputPath(rf.InputPath)}
	if rf.multiuser {
		opts = append(opts, dynamicmr.WithMultiUserSlots())
	}
	if rf.fair {
		opts = append(opts, dynamicmr.WithFairScheduler())
	}
	if rf.ArchiveOut != "" {
		opts = append(opts, dynamicmr.WithQueryStats(), dynamicmr.WithUtilizationSampling(0))
	}
	if len(out.Rules) > 0 {
		opts = append(opts, dynamicmr.WithTimeSeries(out.Rules...))
	}
	if out.Log != nil {
		rf.logFile = out.Log
		opts = append(opts, dynamicmr.WithLogging(out.Log, out.LogLevel))
	}
	opts = append(opts, mode...)
	c, err := dynamicmr.NewCluster(opts...)
	if err != nil {
		fatal(err)
	}
	ds, err := c.LoadLineItem("lineitem", dynamicmr.DatasetSpec{
		Scale: rf.scale, Skew: rf.skew, Rows: rf.rows, Seed: datasetSeed,
	})
	if err != nil {
		fatal(err)
	}
	return c, ds
}

// checkDataset rejects the dataset flag values LoadLineItem would
// refuse or silently reinterpret: a scale below 1, a skew without a
// planted predicate (0, 1 and 2 have one) and a negative row count.
func (rf *runFlags) checkDataset() error {
	if rf.scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %d", rf.scale)
	}
	if _, err := dataset.LevelForZ(rf.skew); err != nil {
		return fmt.Errorf("-skew: %w", err)
	}
	if rf.rows < 0 {
		return fmt.Errorf("-rows must not be negative, got %d", rf.rows)
	}
	return nil
}

// usage reports a bad flag value and exits 2; it is called before
// anything runs.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "dynmr:", err)
	os.Exit(2)
}

// finish is every run mode's exit path, serve's signal handler
// included: it writes the run archive -archive-out names, stamped with
// the write time, closes the cluster, then closes the log stream.
// label names the run in the archive (and titles its rendered report);
// cfg, completed with the dataset flags, describes it.
func (rf *runFlags) finish(c *dynamicmr.Cluster, label string, cfg runarchive.RunConfig) {
	cfg.Seed = datasetSeed
	if cfg.Params == nil {
		cfg.Params = map[string]string{}
	}
	cfg.Params["scale"] = strconv.Itoa(rf.scale)
	cfg.Params["skew"] = strconv.FormatFloat(rf.skew, 'g', -1, 64)
	cfg.Params["rows"] = strconv.FormatInt(rf.rows, 10)
	if rf.ArchiveOut != "" {
		a, err := c.BuildArchive(label, cfg)
		if err == nil {
			a.Manifest.CreatedUnixMS = time.Now().UnixMilli()
			err = a.WriteFile(rf.ArchiveOut)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote run archive to %s (view with `dynmr render`, compare with `dynmr diff`)\n", rf.ArchiveOut)
	}
	c.Close()
	if rf.logFile != nil {
		if err := rf.logFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote virtual-clock log to %s\n", rf.LogOut)
	}
}

// sampleFlags are the sampling-query flags serve and explain share.
type sampleFlags struct {
	policy  string
	k       int64
	queries int
}

// newSampleFlags registers the sampling flags on fs; queries is the
// mode's -queries default.
func newSampleFlags(fs *flag.FlagSet, queries int) *sampleFlags {
	sf := &sampleFlags{}
	fs.StringVar(&sf.policy, "policy", "LA", "growth policy for the sampling queries")
	fs.Int64Var(&sf.k, "k", 1000, "required sample size per query")
	fs.IntVar(&sf.queries, "queries", queries, "number of sampling queries to run (serve: 0 = loop until interrupted)")
	return sf
}

// check rejects the sampling flag values Cluster.Sample would refuse
// only after the table is built: a -k below 1, a -policy that is
// neither a Table I name nor adaptive (both case-insensitive), and a
// negative -queries. serve and explain call it before anything runs.
func (sf *sampleFlags) check() error {
	if sf.k < 1 {
		return fmt.Errorf("-k must be at least 1, got %d", sf.k)
	}
	if !strings.EqualFold(sf.policy, "adaptive") {
		reg := core.DefaultRegistry()
		if _, err := reg.Get(sf.policy); err != nil {
			return fmt.Errorf("unknown -policy %q (want %s or adaptive)", sf.policy, strings.Join(reg.Names(), ", "))
		}
	}
	if sf.queries < 0 {
		return fmt.Errorf("-queries must not be negative, got %d", sf.queries)
	}
	return nil
}

// run executes sampling query n (0-based) over pred and logs its
// outcome to stderr.
func (sf *sampleFlags) run(c *dynamicmr.Cluster, pred string, n int) {
	res, err := c.Sample("lineitem", pred, sf.k, sf.policy, []string{"L_ORDERKEY", "L_PARTKEY", "L_SUPPKEY"})
	if err != nil {
		fatal(err)
	}
	job := res.Job
	fmt.Fprintf(os.Stderr, "query %d: %d row(s), response %.2fs, %d/%d partitions, clock %.2fs\n",
		n+1, len(res.Rows), job.ResponseTime(), job.CompletedMaps(), job.ScheduledMaps(), c.Now())
}

// config describes the sampling run for finish.
func (sf *sampleFlags) config() runarchive.RunConfig {
	return runarchive.RunConfig{Policy: sf.policy, Params: map[string]string{
		"k":       strconv.FormatInt(sf.k, 10),
		"queries": strconv.Itoa(sf.queries),
	}}
}
