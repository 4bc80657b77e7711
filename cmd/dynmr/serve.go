package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynamicmr"
	"dynamicmr/internal/obs"
)

// serveMain runs `dynmr serve`: a paced closed loop of sampling queries
// against the simulated cluster, with the observability surface exposed
// live over HTTP — Prometheus text exposition on /metrics, JSON run
// status on /status, the per-query registry on /queries and the
// self-refreshing HTML dashboard on /live. The query loop advances the
// engine and, after each query, publishes an immutable snapshot of
// every endpoint; handlers serve only that snapshot, so a scrape never
// waits for a query, the first one included.
//
// The time-series engine runs for every serve session, so /tsdb serves
// rolling trend history and /live charts it. With -alert-rules, the
// declarative alert layer is evaluated on the virtual clock; /alerts
// serves the rule set, the firing set and the transition log (schema
// dynamicmr.alerts/1).
//
// SIGINT/SIGTERM shut the loop down gracefully: the current query
// finishes, the run flags' exit flush writes -archive-out
// schema-complete (`dynmr render report` draws the run's HTML report
// from it) and closes -log-out, the HTTP server drains, and the
// process exits 0.
func serveMain(args []string) {
	fs := flag.NewFlagSet("dynmr serve", flag.ExitOnError)
	rf := newRunFlags(fs)
	sf := newSampleFlags(fs, 0)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address for /metrics, /status, /queries and /live")
	paceMS := fs.Int("pace-ms", 500, "real milliseconds to sleep between queries (scrape window)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ (off by default)")
	fs.Parse(args)
	if err := sf.check(); err != nil {
		usage(err)
	}

	// Single queries are short, so serve samples every 5 s, denser than
	// the workload figures' 30 s; /tsdb collects at tsdb's default 5 s.
	c, ds := rf.cluster(
		dynamicmr.WithQueryStats(),
		dynamicmr.WithUtilizationSampling(5),
		dynamicmr.WithTimeSeries())

	srv := obs.NewServer(c.Sampler(), c.QueryStats(), c.TSDB())
	handler := srv.Handler()
	if *pprofOn {
		// Register the pprof handlers explicitly on our own mux rather
		// than importing the package for its DefaultServeMux side
		// effect, so profiling stays opt-in.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()
	fmt.Fprintf(os.Stderr, "dynmr serve: listening on http://%s (/metrics, /status, /queries, /tsdb, /alerts, /live); policy %s, k=%d\n",
		*addr, sf.policy, sf.k)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	pred := ds.Predicate().String()
	interrupted := false
loop:
	for n := 0; sf.queries == 0 || n < sf.queries; n++ {
		sf.run(c, pred, n)
		srv.Publish()
		select {
		case <-ctx.Done():
			interrupted = true
			break loop
		case <-time.After(time.Duration(*paceMS) * time.Millisecond):
		}
	}

	if !interrupted {
		fmt.Fprintf(os.Stderr, "dynmr serve: query loop done; still serving on http://%s (interrupt to exit)\n", *addr)
		<-ctx.Done()
	}
	fmt.Fprintln(os.Stderr, "dynmr serve: shutting down")

	rf.finish(c, "dynmr serve — policy "+sf.policy, sf.config())

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "dynmr serve: http shutdown: %v\n", err)
	}
}
