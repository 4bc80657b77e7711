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

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(1, func() { fired++; e.stopped = true })
	e.At(2, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
	// Run can be resumed.
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

// Pins RunUntil's stopped-clock semantics: when stopped is set mid-run the
// clock stays at the last fired event's time instead of advancing to
// the bound, and the remaining events stay queued.
func TestRunUntilStoppedClockStaysAtLastEvent(t *testing.T) {
	e := NewEngine()
	e.At(1, func() { e.stopped = true })
	fired := false
	e.At(5, func() { fired = true })
	e.RunUntil(10)
	if e.Now() != 1 {
		t.Fatalf("Now() = %v after Stop mid-run, want 1 (stopped clock must not advance to the bound)", e.Now())
	}
	if fired {
		t.Fatal("event after Stop fired")
	}
	if len(e.queue) != 1 {
		t.Fatalf("Pending() = %d, want 1", len(e.queue))
	}
	// Resuming drains the queue and then advances to the bound.
	e.RunUntil(10)
	if !fired {
		t.Fatal("remaining event did not fire on resume")
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v after resume, want 10", e.Now())
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
