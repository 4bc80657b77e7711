package sim

import (
	"fmt"
	"math"
)

// Demand is an outstanding request for service on a SharedResource.
type Demand struct {
	res       *SharedResource
	remaining float64 // units of work left
	done      func()
	active    bool
}

// SharedResource models a processor-sharing server: `capacity` units of
// work per second divided equally among active demands, with each demand
// additionally capped at maxPerUser units/second. It models a disk (bytes
// per second, one stream cannot exceed the platter rate), a node's CPU
// (core-seconds per second, one task cannot exceed one core), or a
// network fabric (bytes per second, one stream capped at NIC rate).
//
// The implementation recomputes the next completion whenever the set of
// active demands changes, which is the standard event-driven realisation
// of a PS queue.
type SharedResource struct {
	eng        *Engine
	name       string
	capacity   float64
	maxPerUser float64

	active     []*Demand
	lastUpdate float64
	// usedIntegral accumulates (aggregate service rate) dt; dividing a
	// window's delta by capacity*dt yields utilisation in [0,1].
	usedIntegral float64
	nextDone     *Event
	// nextTargets are the demands the pending completion event was
	// computed for. When the event fires they are mathematically done;
	// forcing their remaining to zero guards against float rounding
	// producing a zero-length event loop.
	nextTargets []*Demand
	// onComplete is r.complete, bound once: every reschedule arms a
	// completion event with it.
	onComplete func()
	// finished is complete's buffer of the demands it retires, reused
	// across completions.
	finished []*Demand
}

// NewSharedResource creates a processor-sharing resource. maxPerUser <= 0
// means "no per-user cap" (each user may consume the full capacity when
// alone).
func NewSharedResource(eng *Engine, name string, capacity, maxPerUser float64) *SharedResource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q capacity must be positive, got %v", name, capacity))
	}
	if maxPerUser <= 0 {
		maxPerUser = capacity
	}
	r := &SharedResource{eng: eng, name: name, capacity: capacity, maxPerUser: maxPerUser}
	r.onComplete = r.complete
	return r
}

// Capacity returns the total service rate.
func (r *SharedResource) Capacity() float64 { return r.capacity }

// rate returns the per-demand service rate for n active demands.
func (r *SharedResource) rate(n int) float64 {
	if n == 0 {
		return 0
	}
	return math.Min(r.maxPerUser, r.capacity/float64(n))
}

// UsedIntegral returns the accumulated service (units of work delivered)
// up to the current virtual time. The difference of two readings divided
// by capacity*(t2-t1) is the mean utilisation over the window.
//
// It is a pure read: the service accrued since the last change is added
// to the result, not applied to the active demands, so reading never
// moves a completion time. It equals what Settle would store.
func (r *SharedResource) UsedIntegral() float64 {
	used := r.usedIntegral
	if n := len(r.active); n > 0 {
		if dt := r.eng.Now() - r.lastUpdate; dt > 0 {
			used += r.rate(n) * float64(n) * dt
		}
	}
	return used
}

// Settle applies the service accrued since the last change to the
// active demands and the integral. It changes no demand's share, but
// splitting the accrual rounds remaining work differently, which moves
// later completion times in the last bits.
func (r *SharedResource) Settle() { r.advance() }

// Submit enqueues `work` units and calls done when they have been served.
// Zero or negative work completes immediately (done is invoked via the
// event queue to preserve run-to-completion semantics).
func (r *SharedResource) Submit(work float64, done func()) *Demand {
	d := &Demand{res: r, remaining: work, done: done}
	if work <= 0 {
		r.eng.After(0, done)
		return d
	}
	r.advance()
	d.active = true
	r.active = append(r.active, d)
	r.reschedule()
	return d
}

// Cancel withdraws a demand before completion; done is not called.
func (r *SharedResource) Cancel(d *Demand) {
	if d == nil || !d.active {
		return
	}
	r.advance()
	d.active = false
	for i, x := range r.active {
		if x == d {
			r.active = append(r.active[:i], r.active[i+1:]...)
			break
		}
	}
	r.reschedule()
}

// advance applies service accrued since lastUpdate to all active demands.
func (r *SharedResource) advance() {
	now := r.eng.Now()
	dt := now - r.lastUpdate
	if dt > 0 {
		n := len(r.active)
		if n > 0 {
			rate := r.rate(n)
			for _, d := range r.active {
				d.remaining -= rate * dt
				if d.remaining < 0 {
					d.remaining = 0
				}
			}
			r.usedIntegral += rate * float64(n) * dt
		}
		r.lastUpdate = now
	} else if dt == 0 {
		r.lastUpdate = now
	}
}

// reschedule recomputes the single pending "next completion" event.
func (r *SharedResource) reschedule() {
	if r.nextDone != nil {
		r.eng.Cancel(r.nextDone)
		r.nextDone = nil
	}
	r.nextTargets = r.nextTargets[:0]
	n := len(r.active)
	if n == 0 {
		return
	}
	rate := r.rate(n)
	minRem := math.Inf(1)
	for _, d := range r.active {
		if d.remaining < minRem {
			minRem = d.remaining
		}
	}
	for _, d := range r.active {
		if d.remaining <= minRem {
			r.nextTargets = append(r.nextTargets, d)
		}
	}
	dt := minRem / rate
	r.nextDone = r.eng.After(dt, r.onComplete)
}

// complete fires when the demand with least remaining work finishes.
func (r *SharedResource) complete() {
	r.nextDone = nil
	r.advance()
	// The targeted demands are mathematically finished at this instant;
	// force their remaining to zero so float rounding can never leave a
	// sliver that reschedules a zero-length event forever.
	for _, d := range r.nextTargets {
		if d.active {
			d.remaining = 0
		}
	}
	// Also sweep any other demand that has numerically finished. The
	// survivors are compacted in place, keeping their order.
	eps := 1e-12 * r.capacity
	finished := r.finished[:0]
	still := r.active[:0]
	for _, d := range r.active {
		if d.remaining <= eps {
			d.remaining = 0
			d.active = false
			finished = append(finished, d)
		} else {
			still = append(still, d)
		}
	}
	clear(r.active[len(still):])
	r.active = still
	r.reschedule()
	// Callbacks run once the resource is consistent, so they may Submit
	// to or Cancel on it.
	for _, d := range finished {
		if d.done != nil {
			d.done()
		}
	}
	clear(finished)
	r.finished = finished[:0]
}
