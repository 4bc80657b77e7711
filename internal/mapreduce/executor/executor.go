// Package executor provides a bounded worker pool that runs pure map
// record scans off the simulator thread.
//
// The discrete-event simulator charges every map attempt its simulated
// I/O and CPU seconds from split metadata, so the *real* record scan a
// map task performs contributes nothing to virtual time — it is pure
// wall-clock cost, and it is the dominant real-world cost of a deep
// experiment cell. The executor decouples that compute from the
// single-threaded simulation loop: the JobTracker submits the scan when
// an attempt's phase chain starts (its inputs are fixed at that point),
// lets the simulation proceed, and joins the future when the
// completion event fires — blocking only if real compute is slower
// than simulated time.
//
// Determinism contract (enforced by the caller, see the mapreduce
// package): only jobs that declare purity via JobSpec.MemoKey are
// submitted, results are joined on the simulator goroutine in event
// order, and concurrent submissions for the same (source, MemoKey) are
// deduplicated (singleflight), so a run's outputs are byte-identical
// whether the pool has 0, 1 or N workers.
package executor

import (
	"sync"
)

// Key identifies one pure scan: the split's record source (compared by
// identity; every source in this repository is a pointer) plus the
// job's MemoKey purity declaration.
type Key struct {
	Source any
	Memo   string
}

// Future is the pending (or completed) result of a submitted scan.
// Wait may be called from any goroutine; a Future may be shared by
// several attempts whose keys collided (singleflight).
type Future struct {
	done chan struct{}
	val  any
	err  error
}

// Wait blocks until the scan completes and returns its result.
func (f *Future) Wait() (any, error) {
	<-f.done
	return f.val, f.err
}

// Ready reports whether Wait would return without blocking.
func (f *Future) Ready() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Resolved returns an already-completed Future carrying v. The caller
// uses it when a cache already holds the scan's output, so the join
// path is uniform.
func Resolved(v any) *Future {
	return &Future{done: closed, val: v}
}

// closed is the done channel every Resolved future shares.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

type task struct {
	key Key
	fn  func() (any, error)
	fut *Future
}

// Pool is a bounded worker pool with singleflight submission. The zero
// value is not usable; use NewPool. A nil *Pool is a valid "disabled"
// pool: Submit on it is not allowed (callers gate on Enabled).
type Pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*task
	inflight map[Key]*Future
	workers  int
	closed   bool
	wg       sync.WaitGroup

	submitted uint64 // scans dispatched to workers
	deduped   uint64 // submissions coalesced onto an in-flight future
	completed uint64 // scans finished by workers
}

// NewPool starts a pool with the given number of worker goroutines.
// workers <= 0 returns nil — the disabled pool, which callers treat as
// "execute inline".
func NewPool(workers int) *Pool {
	if workers <= 0 {
		return nil
	}
	p := &Pool{
		inflight: make(map[Key]*Future),
		workers:  workers,
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Enabled reports whether the pool can accept submissions.
func (p *Pool) Enabled() bool { return p != nil }

// Workers returns the worker count (0 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 0
	}
	return p.workers
}

// Submit schedules fn on the pool and returns its Future. If a scan
// with the same key is already queued or running, fn is dropped and
// the existing Future is returned (singleflight): pure scans with
// equal keys produce equal results, so one execution serves every
// concurrent attempt — speculative twins within a cell and colliding
// cells of a parallel sweep alike. After the pool is closed, fn runs
// inline on the caller.
func (p *Pool) Submit(key Key, fn func() (any, error)) *Future {
	p.mu.Lock()
	if f, ok := p.inflight[key]; ok {
		p.deduped++
		p.mu.Unlock()
		return f
	}
	f := &Future{done: make(chan struct{})}
	if p.closed {
		p.mu.Unlock()
		f.val, f.err = fn()
		close(f.done)
		return f
	}
	p.inflight[key] = f
	p.submitted++
	p.queue = append(p.queue, &task{key: key, fn: fn, fut: f})
	p.cond.Signal()
	p.mu.Unlock()
	return f
}

// worker pops and runs tasks until Close.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		t := p.queue[0]
		p.queue[0] = nil
		p.queue = p.queue[1:]
		p.mu.Unlock()

		v, err := t.fn()

		p.mu.Lock()
		delete(p.inflight, t.key)
		p.completed++
		p.mu.Unlock()
		t.fut.val, t.fut.err = v, err
		close(t.fut.done)
	}
}

// Close drains the queue (queued scans still run) and stops the
// workers, blocking until they exit. Submissions after Close run
// inline on the caller, so a closed pool is still correct — just no
// longer concurrent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats returns lifetime submission counters: scans dispatched,
// submissions coalesced by singleflight, and scans completed.
func (p *Pool) Stats() (submitted, deduped, completed uint64) {
	if p == nil {
		return 0, 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.submitted, p.deduped, p.completed
}
