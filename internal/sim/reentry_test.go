package sim

import (
	"math/rand"
	"testing"
)

// refResource is the reference for TestCallbacksReenterResource: the
// processor-sharing resource as it was before it bound its completion
// callback once and reused its buffers, building fresh finished and
// still slices on every completion.
type refResource struct {
	eng         *Engine
	capacity    float64
	maxPerUser  float64
	active      []*refDemand
	lastUpdate  float64
	nextDone    *Event
	nextTargets []*refDemand
}

type refDemand struct {
	remaining float64
	done      func()
	active    bool
}

func (r *refResource) rate(n int) float64 {
	if n == 0 {
		return 0
	}
	return min(r.maxPerUser, r.capacity/float64(n))
}

func (r *refResource) Submit(work float64, done func()) *refDemand {
	d := &refDemand{remaining: work, done: done}
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

func (r *refResource) Cancel(d *refDemand) {
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

func (r *refResource) advance() {
	now := r.eng.Now()
	dt := now - r.lastUpdate
	if dt > 0 {
		if n := len(r.active); n > 0 {
			rate := r.rate(n)
			for _, d := range r.active {
				d.remaining -= rate * dt
				if d.remaining < 0 {
					d.remaining = 0
				}
			}
		}
	}
	r.lastUpdate = now
}

func (r *refResource) reschedule() {
	if r.nextDone != nil {
		r.eng.Cancel(r.nextDone)
		r.nextDone = nil
	}
	r.nextTargets = r.nextTargets[:0]
	n := len(r.active)
	if n == 0 {
		return
	}
	minRem := r.active[0].remaining
	for _, d := range r.active {
		minRem = min(minRem, d.remaining)
	}
	for _, d := range r.active {
		if d.remaining <= minRem {
			r.nextTargets = append(r.nextTargets, d)
		}
	}
	r.nextDone = r.eng.After(minRem/r.rate(n), r.complete)
}

func (r *refResource) complete() {
	r.nextDone = nil
	r.advance()
	for _, d := range r.nextTargets {
		if d.active {
			d.remaining = 0
		}
	}
	eps := 1e-12 * r.capacity
	var finished, still []*refDemand
	for _, d := range r.active {
		if d.remaining <= eps {
			d.remaining = 0
			d.active = false
			finished = append(finished, d)
		} else {
			still = append(still, d)
		}
	}
	r.active = still
	r.reschedule()
	for _, d := range finished {
		if d.done != nil {
			d.done()
		}
	}
}

type completion struct {
	id int
	at float64
}

// churn drives a resource through a seeded script whose completion
// callbacks start new demands (some of zero work) and cancel earlier
// ones on the same resource, and returns the completions in order.
// submit starts a demand and returns the function that cancels it.
func churn(seed int64, eng *Engine, submit func(work float64, done func()) (cancel func())) []completion {
	rng := rand.New(rand.NewSource(seed))
	var log []completion
	var cancels []func()
	work := func() float64 {
		if rng.Intn(6) == 0 {
			return 0
		}
		return float64(rng.Intn(4)) + rng.Float64()
	}
	var start func(w float64)
	start = func(w float64) {
		id := len(cancels)
		cancels = append(cancels, nil)
		cancels[id] = submit(w, func() {
			log = append(log, completion{id, eng.Now()})
			for k := 1 + rng.Intn(2); k > 0 && len(cancels) < 400; k-- {
				start(work())
			}
			if rng.Intn(3) == 0 {
				cancels[rng.Intn(len(cancels))]()
			}
		})
	}
	for i := 0; i < 6; i++ {
		at, w := rng.Float64()*2, work()
		eng.At(at, func() { start(w) })
	}
	eng.Run()
	return log
}

// TestCallbacksReenterResource checks that completion callbacks which
// Submit to and Cancel on the resource that is completing them see the
// same completions, in the same order and at the same times to the
// last bit, as on refResource.
func TestCallbacksReenterResource(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		capacity, perUser := 1+float64(seed%4), float64(seed%3)
		eng := NewEngine()
		r := NewSharedResource(eng, "cpu", capacity, perUser)
		got := churn(seed, eng, func(w float64, done func()) func() {
			d := r.Submit(w, done)
			return func() { r.Cancel(d) }
		})
		if r.ActiveDemands() != 0 {
			t.Fatalf("seed %d: %d demands still active", seed, r.ActiveDemands())
		}
		refEng := NewEngine()
		ref := &refResource{eng: refEng, capacity: capacity, maxPerUser: perUser}
		if perUser <= 0 {
			ref.maxPerUser = capacity
		}
		want := churn(seed, refEng, func(w float64, done func()) func() {
			d := ref.Submit(w, done)
			return func() { ref.Cancel(d) }
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d completions, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: completion %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) < 20 {
			t.Fatalf("seed %d: only %d completions; the script should churn", seed, len(got))
		}
	}
}
