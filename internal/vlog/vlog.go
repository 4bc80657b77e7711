// Package vlog is a structured-logging facade for the simulated
// cluster. It wraps a standard log/slog handler so that every record
// is stamped with the *virtual* clock (seconds since simulation
// start, attribute "vt") instead of the wall clock, which is
// meaningless inside a discrete-event run. Library packages log
// through a *slog.Logger threaded in via configuration; the default
// is Nop(), so nothing is ever written to stdout/stderr unless a
// binary under cmd/ opts in with -log-out/-log-level.
//
// Attribute contract (see DESIGN.md "Structured logging"):
//
//	vt      float64  virtual time in seconds (every record)
//	job     int      job ID
//	task    int      task index within the job
//	attempt int      attempt sequence number
//	node    int      node (TaskTracker) index
//	policy  string   Input Provider policy name (Hadoop/HA/MA/LA/C)
//	verdict string   policy decision verdict (INIT/GROW/WAIT/EOI/SKIP)
//	user    string   session user
//	query   string   SQL statement text
//	qid     string   stable query ID assigned by the qstats registry
//	comp    string   emitting component (e.g. "jobtracker", "hive")
package vlog

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"
)

// Shared attribute keys. Emitters must use these constants so that
// records from different subsystems correlate on the same fields.
const (
	KeyVT        = "vt"
	KeyJob       = "job"
	KeyTask      = "task"
	KeyAttempt   = "attempt"
	KeyNode      = "node"
	KeyPolicy    = "policy"
	KeyVerdict   = "verdict"
	KeyUser      = "user"
	KeyQuery     = "query"
	KeyQueryID   = "qid"
	KeyComponent = "comp"
)

// Handler decorates an inner slog.Handler: it zeroes the wall-clock
// timestamp (slog JSON/text handlers omit a zero time) and prepends a
// "vt" attribute read from the virtual clock at Handle time.
type Handler struct {
	inner slog.Handler
	now   func() float64
}

// NewHandler wraps inner. now reads the virtual clock in seconds; a
// nil now stamps vt=0 on every record.
func NewHandler(inner slog.Handler, now func() float64) *Handler {
	return &Handler{inner: inner, now: now}
}

// Enabled implements slog.Handler.
func (h *Handler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle implements slog.Handler: the record is re-issued with a zero
// wall-clock time and a leading vt attribute.
func (h *Handler) Handle(ctx context.Context, r slog.Record) error {
	vt := 0.0
	if h.now != nil {
		vt = h.now()
	}
	out := slog.NewRecord(time.Time{}, r.Level, r.Message, r.PC)
	out.AddAttrs(slog.Float64(KeyVT, vt))
	r.Attrs(func(a slog.Attr) bool {
		out.AddAttrs(a)
		return true
	})
	return h.inner.Handle(ctx, out)
}

// WithAttrs implements slog.Handler.
func (h *Handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &Handler{inner: h.inner.WithAttrs(attrs), now: h.now}
}

// WithGroup implements slog.Handler.
func (h *Handler) WithGroup(name string) slog.Handler {
	return &Handler{inner: h.inner.WithGroup(name), now: h.now}
}

// lockedWriter serialises concurrent rigs appending NDJSON lines to
// one file (slog handlers lock per handler, not per destination).
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// LockWriter wraps w so writes from multiple handlers do not
// interleave mid-line.
func LockWriter(w io.Writer) io.Writer { return &lockedWriter{w: w} }

// New builds a virtual-clock NDJSON logger writing one JSON object
// per line to w at the given level. now reads the virtual clock.
func New(w io.Writer, level slog.Leveler, now func() float64) *slog.Logger {
	inner := slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	return slog.New(NewHandler(inner, now))
}

// nopHandler discards everything; Enabled is false at every level so
// callers guarded with Logger.Enabled pay nothing.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nop = slog.New(nopHandler{})

// Nop returns the shared discard logger: the default for every
// library component when no logger is configured.
func Nop() *slog.Logger { return nop }

// Or returns l if non-nil, else the Nop logger, so library code never
// nil-checks its logger.
func Or(l *slog.Logger) *slog.Logger {
	if l == nil {
		return nop
	}
	return l
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}
