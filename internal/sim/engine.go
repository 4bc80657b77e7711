// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue, and processor-sharing contended
// resources. It is the substrate under the simulated cluster on which
// the mini MapReduce runtime executes.
//
// All times are in seconds of virtual time, represented as float64. The
// engine is single-threaded; callbacks scheduled on the engine run one at
// a time, so no locking is needed in simulation code. Distinct Engine
// instances share no state, so independent simulations may run on
// separate goroutines concurrently (the experiment harness does).
package sim

import (
	"fmt"
	"math"
	"time"
)

// Event is a scheduled callback. Events are ordered by time, with ties
// broken by scheduling order, which makes runs fully deterministic.
//
// Event handles are single-owner: once the event has fired or been
// canceled the engine recycles the Event object for a later At/After
// call, so a holder must drop (nil out) its handle at that point and
// never Cancel through a stale one — a stale Cancel could silently
// cancel whatever unrelated event the object now represents. Every
// holder in this repository nils its handle inside the callback or
// immediately after Cancel; new code must follow the same discipline.
type Event struct {
	time     float64
	seq      uint64
	index    int // heap index, -1 if not queued
	fn       func()
	canceled bool
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now   float64
	seq   uint64
	queue []*Event
	// free holds fired/canceled Event objects for reuse. The DES hot
	// loop schedules and fires millions of events (every map attempt's
	// phases and heartbeats); recycling them removes that allocation
	// churn from the hot path.
	free []*Event
	// processed counts events that have fired, for diagnostics.
	processed uint64
	// blockedReal accumulates real (wall-clock) time spent inside
	// RealBlock, for diagnostics: it is how long the simulation loop
	// stalled waiting on real-world work (e.g. joining an async map
	// scan), which never advances the virtual clock.
	blockedReal time.Duration
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn at absolute virtual time t. Scheduling in the past
// panics: it would break causality and always indicates a bug.
func (e *Engine) At(t float64, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.canceled = false
	} else {
		ev = &Event{}
	}
	ev.time, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.push(ev)
	return ev
}

// After schedules fn d seconds from now. Negative d panics.
func (e *Engine) After(d float64, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event through a still-held handle is a no-op (but
// see the Event comment: handles must be dropped once the object may
// have been recycled).
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.index < 0 {
		if ev != nil {
			ev.canceled = true
		}
		return
	}
	ev.canceled = true
	e.remove(ev)
	e.recycle(ev)
}

// RealBlock runs fn, which may block on real-world (wall-clock) work —
// typically joining a future computed off the simulator thread — and
// accounts the real time spent. It is the one sanctioned way for
// simulation code to wait on real work: the virtual clock is asserted
// unchanged across the call, so real-time stalls can never leak into
// simulated results, and the accumulated stall total is available via
// BlockedReal for diagnostics. fn may schedule events but must not
// advance the clock (only the event loop does that).
func (e *Engine) RealBlock(fn func()) {
	start := time.Now()
	before := e.now
	fn()
	if e.now != before {
		panic("sim: RealBlock callback advanced the virtual clock")
	}
	e.blockedReal += time.Since(start)
}

// BlockedReal returns the total real time the simulation loop has
// spent stalled inside RealBlock calls.
func (e *Engine) BlockedReal() time.Duration { return e.blockedReal }

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	for len(e.queue) > 0 {
		e.step()
	}
}

// RunUntil processes events with time <= t, then advances the clock to t.
// Events scheduled at exactly t do fire.
func (e *Engine) RunUntil(t float64) {
	for len(e.queue) > 0 && e.queue[0].time <= t {
		e.step()
	}
	if t > e.now {
		e.now = t
	}
}

// Step fires the single next event. It reports false when the queue is
// empty. Drivers that keep periodic events alive (heartbeats) use Step
// in a condition loop instead of Run.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.step()
	return true
}

func (e *Engine) step() {
	ev := e.pop()
	if ev.time < e.now {
		panic("sim: event time regression")
	}
	e.now = ev.time
	e.processed++
	ev.fn()
	e.recycle(ev)
}

// recycle returns a fired or canceled event to the freelist, releasing
// its callback so captured state does not outlive the event.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// less orders events by (time, seq).
func less(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push appends ev and sifts it up. The sift is hand-inlined rather
// than routed through container/heap: the overwhelmingly common case —
// scheduling at or after the times already queued along the path to
// the root — exits on the first comparison with zero swaps and no
// interface dispatch.
func (e *Engine) push(ev *Event) {
	i := len(e.queue)
	e.queue = append(e.queue, ev)
	for i > 0 {
		parent := (i - 1) / 2
		p := e.queue[parent]
		if less(p, ev) {
			break
		}
		e.queue[i] = p
		p.index = i
		i = parent
	}
	e.queue[i] = ev
	ev.index = i
}

// pop removes and returns the earliest event.
func (e *Engine) pop() *Event {
	ev := e.queue[0]
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if n > 0 {
		e.queue[0] = last
		last.index = 0
		e.siftDown(0)
	}
	ev.index = -1
	return ev
}

// remove deletes a queued event at an arbitrary heap position.
func (e *Engine) remove(ev *Event) {
	i := ev.index
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if i < n {
		e.queue[i] = last
		last.index = i
		e.siftDown(i)
		if last.index == i {
			e.siftUp(i)
		}
	}
	ev.index = -1
}

// siftUp restores the heap property moving e.queue[i] toward the root.
func (e *Engine) siftUp(i int) {
	ev := e.queue[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := e.queue[parent]
		if less(p, ev) {
			break
		}
		e.queue[i] = p
		p.index = i
		i = parent
	}
	e.queue[i] = ev
	ev.index = i
}

// siftDown restores the heap property moving e.queue[i] toward the
// leaves.
func (e *Engine) siftDown(i int) {
	n := len(e.queue)
	ev := e.queue[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := e.queue[l]
		if r := l + 1; r < n && less(e.queue[r], c) {
			l, c = r, e.queue[r]
		}
		if less(ev, c) {
			break
		}
		e.queue[i] = c
		c.index = i
		i = l
	}
	e.queue[i] = ev
	ev.index = i
}

// rekey moves the pending event ev to time t in place. It gives ev the
// sequence number Cancel followed by At(t, ev's callback) would give
// the new event, so every later pop is the same as under that pair: the
// heap pops in (time, seq) order and those keys are unique, so where ev
// sits in the heap cannot change which event pops next. It panics on
// the times At panics on.
func (e *Engine) rekey(ev *Event, t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	ev.time, ev.seq = t, e.seq
	e.seq++
	i := ev.index
	e.siftUp(i)
	if ev.index == i {
		e.siftDown(i)
	}
}
