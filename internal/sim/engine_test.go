package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, tm := range times {
		tm := tm
		e.At(tm, func() { order = append(order, tm) })
	}
	e.Run()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if len(order) != len(times) {
		t.Fatalf("fired %d events, want %d", len(order), len(times))
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: order[%d] = %d", i, v)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := NewEngine()
	var at float64
	e.After(2.5, func() { at = e.Now() })
	e.Run()
	if at != 2.5 {
		t.Fatalf("callback ran at %v, want 2.5", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []float64
	e.After(1, func() {
		trace = append(trace, e.Now())
		e.After(1, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	want := []float64{1, 2}
	if len(trace) != 2 || trace[0] != want[0] || trace[1] != want[1] {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.canceled {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	e := NewEngine()
	ev := e.At(1, func() {})
	e.Cancel(ev)
	e.Cancel(ev) // must not panic
	e.Cancel(nil)
	e.Run()
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var fired []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.At(float64(i), func() { fired = append(fired, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	if len(fired) != 8 {
		t.Fatalf("fired %d events, want 8: %v", len(fired), fired)
	}
	for _, v := range fired {
		if v == 4 || v == 7 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.After(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestRunUntilAdvancesClockToBound(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() { fired++ })
	e.At(3, func() { fired++ })
	e.RunUntil(2)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 2 {
		t.Fatalf("Now() = %v, want 2", e.Now())
	}
	e.RunUntil(10)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// Fired and canceled events return to the freelist and are reused by
// later At calls with their canceled flag cleared.
func TestFreelistRecyclesEvents(t *testing.T) {
	e := NewEngine()
	ev1 := e.At(1, func() {})
	e.Run()
	ev2 := e.At(2, func() {})
	if ev1 != ev2 {
		t.Fatal("fired event object was not recycled")
	}
	e.Cancel(ev2)
	ev3 := e.At(3, func() {})
	if ev3 != ev2 {
		t.Fatal("canceled event object was not recycled")
	}
	if ev3.canceled {
		t.Fatal("recycled event still marked canceled")
	}
	fired := false
	ev3.fn = func() { fired = true }
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// Canceling an event from inside its own callback must not push it to
// the freelist twice (a double recycle would hand the same object to
// two later At calls).
func TestCancelSelfDuringCallbackNoDoubleRecycle(t *testing.T) {
	e := NewEngine()
	var ev *Event
	ev = e.At(1, func() { e.Cancel(ev) })
	e.Run()
	a := e.At(2, func() {})
	b := e.At(3, func() {})
	if a == b {
		t.Fatal("event recycled twice: two live events share one object")
	}
	e.Run()
}

// Distinct engines share no state, so independent simulations can run
// on concurrent goroutines (the experiment harness does); run under
// -race.
func TestConcurrentEnginesIndependent(t *testing.T) {
	done := make(chan uint64)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			e := NewEngine()
			var ev *Event
			for i := 0; i < 2000; i++ {
				if ev != nil && i%3 == 0 {
					e.Cancel(ev)
					ev = nil
				}
				ev = e.After(float64(g+1), func() {})
				if i%64 == 0 {
					e.Run()
					ev = nil
				}
			}
			e.Run()
			done <- e.Processed()
		}()
	}
	for g := 0; g < 4; g++ {
		if n := <-done; n == 0 {
			t.Fatal("engine processed no events")
		}
	}
}

func TestProcessedAndPendingCounters(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(float64(i), func() {})
	}
	if len(e.queue) != 5 {
		t.Fatalf("Pending() = %d, want 5", len(e.queue))
	}
	e.Run()
	if e.Processed() != 5 {
		t.Fatalf("Processed() = %d, want 5", e.Processed())
	}
	if len(e.queue) != 0 {
		t.Fatalf("Pending() = %d after Run, want 0", len(e.queue))
	}
}

// Property: with any set of non-negative delays, the clock observed by
// callbacks is non-decreasing and every event fires exactly once.
func TestClockMonotonicityProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) > 512 {
			delays = delays[:512]
		}
		e := NewEngine()
		last := -1.0
		fired := 0
		ok := true
		for _, d := range delays {
			e.At(float64(d)/7.0, func() {
				now := e.Now()
				if now < last {
					ok = false
				}
				last = now
				fired++
			})
		}
		e.Run()
		return ok && fired == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleaved schedule/cancel keeps the heap consistent.
func TestRandomCancelProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		var live []*Event
		fired := 0
		canceled := 0
		total := 200
		for i := 0; i < total; i++ {
			ev := e.At(rng.Float64()*100, func() { fired++ })
			live = append(live, ev)
			if rng.Intn(3) == 0 && len(live) > 0 {
				k := rng.Intn(len(live))
				if live[k].index >= 0 {
					e.Cancel(live[k])
					canceled++
				}
				live = append(live[:k], live[k+1:]...)
			}
		}
		e.Run()
		if fired+canceled != total {
			t.Fatalf("fired %d + canceled %d != %d", fired, canceled, total)
		}
	}
}

func TestRealBlockAccumulatesAndGuardsClock(t *testing.T) {
	e := NewEngine()
	if e.BlockedReal() != 0 {
		t.Fatalf("BlockedReal = %v on a fresh engine", e.BlockedReal())
	}
	ran := false
	e.RealBlock(func() { ran = true })
	if !ran {
		t.Fatal("RealBlock did not run the callback")
	}
	if e.Now() != 0 {
		t.Fatalf("RealBlock advanced virtual time to %v", e.Now())
	}
	if e.BlockedReal() < 0 {
		t.Fatalf("BlockedReal = %v", e.BlockedReal())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RealBlock accepted a callback that advanced the virtual clock")
		}
	}()
	e.RealBlock(func() {
		e.At(1, func() {})
		e.Run()
	})
}

// rekey is Cancel + At without the round trip: one engine drives random
// At, Cancel, rekey and step operations, a twin replaces each rekey by
// Cancel + At of the same callback, and both fire the same events at
// the same times in the same order. Times are drawn from a few values,
// so most pops break a tie by sequence number.
func TestRekeyMatchesCancelAt(t *testing.T) {
	type fired struct {
		id int
		at float64
	}
	type twin struct {
		e       *Engine
		pending map[int]*Event
		log     []fired
	}
	newTwin := func() *twin { return &twin{e: NewEngine(), pending: map[int]*Event{}} }
	fn := func(tw *twin, id int) func() {
		return func() {
			delete(tw.pending, id)
			tw.log = append(tw.log, fired{id, tw.e.Now()})
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := newTwin(), newTwin()
		ids := []int{} // ids pending in both twins, in schedule order
		next := 0
		pick := func() (int, int) {
			for {
				i := rng.Intn(len(ids))
				if _, ok := a.pending[ids[i]]; ok {
					return i, ids[i]
				}
				ids = append(ids[:i], ids[i+1:]...)
				if len(ids) == 0 {
					return -1, -1
				}
			}
		}
		for op := 0; op < 4000; op++ {
			when := a.e.Now() + float64(rng.Intn(3))*0.5
			switch r := rng.Intn(10); {
			case r < 4 || len(ids) == 0:
				id := next
				next++
				a.pending[id] = a.e.At(when, fn(a, id))
				b.pending[id] = b.e.At(when, fn(b, id))
				ids = append(ids, id)
			case r < 5:
				if i, id := pick(); i >= 0 {
					a.e.Cancel(a.pending[id])
					b.e.Cancel(b.pending[id])
					delete(a.pending, id)
					delete(b.pending, id)
					ids = append(ids[:i], ids[i+1:]...)
				}
			case r < 8:
				if _, id := pick(); id >= 0 {
					a.e.rekey(a.pending[id], when)
					b.e.Cancel(b.pending[id])
					b.pending[id] = b.e.At(when, fn(b, id))
				}
			default:
				if a.e.Step() != b.e.Step() {
					t.Fatalf("seed %d op %d: one twin's queue emptied first", seed, op)
				}
			}
		}
		a.e.Run()
		b.e.Run()
		if len(a.log) == 0 || len(a.log) != len(b.log) {
			t.Fatalf("seed %d: rekey twin fired %d events, Cancel+At twin %d", seed, len(a.log), len(b.log))
		}
		for i := range a.log {
			if a.log[i] != b.log[i] {
				t.Fatalf("seed %d: pop %d: rekey twin fired %+v, Cancel+At twin %+v", seed, i, a.log[i], b.log[i])
			}
		}
	}
}
