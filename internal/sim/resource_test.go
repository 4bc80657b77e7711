package sim

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleDemandServedAtPerUserCap(t *testing.T) {
	e := NewEngine()
	// Capacity 100/s but a single user capped at 25/s: 100 units take 4 s.
	r := NewSharedResource(e, "disk", 100, 25)
	var doneAt float64
	r.Submit(100, func() { doneAt = e.Now() })
	e.Run()
	if !almostEqual(doneAt, 4, 1e-9) {
		t.Fatalf("done at %v, want 4", doneAt)
	}
}

func TestUncappedSingleDemandUsesFullCapacity(t *testing.T) {
	e := NewEngine()
	r := NewSharedResource(e, "disk", 50, 0)
	var doneAt float64
	r.Submit(100, func() { doneAt = e.Now() })
	e.Run()
	if !almostEqual(doneAt, 2, 1e-9) {
		t.Fatalf("done at %v, want 2", doneAt)
	}
}

func TestEqualSharingBetweenTwoDemands(t *testing.T) {
	e := NewEngine()
	r := NewSharedResource(e, "cpu", 10, 0)
	var d1At, d2At float64
	r.Submit(10, func() { d1At = e.Now() })
	r.Submit(10, func() { d2At = e.Now() })
	e.Run()
	// Both share 10/s equally: each gets 5/s, both finish at t=2.
	if !almostEqual(d1At, 2, 1e-9) || !almostEqual(d2At, 2, 1e-9) {
		t.Fatalf("done at %v and %v, want both 2", d1At, d2At)
	}
}

func TestLateArrivalSlowsEarlier(t *testing.T) {
	e := NewEngine()
	r := NewSharedResource(e, "cpu", 10, 0)
	var firstAt float64
	r.Submit(10, func() { firstAt = e.Now() })
	// At t=0.5 the first demand has 5 units left; second arrival halves
	// its rate to 5/s, so it finishes at 0.5 + 1 = 1.5.
	e.At(0.5, func() { r.Submit(100, nil) })
	e.RunUntil(2)
	if !almostEqual(firstAt, 1.5, 1e-9) {
		t.Fatalf("first done at %v, want 1.5", firstAt)
	}
}

func TestDepartureSpeedsUpRemainder(t *testing.T) {
	e := NewEngine()
	r := NewSharedResource(e, "cpu", 10, 0)
	var shortAt, longAt float64
	r.Submit(5, func() { shortAt = e.Now() })
	r.Submit(10, func() { longAt = e.Now() })
	e.Run()
	// Shared at 5/s each: short finishes at t=1 with long having 5 left,
	// which then runs at 10/s and finishes at t=1.5.
	if !almostEqual(shortAt, 1, 1e-9) {
		t.Fatalf("short done at %v, want 1", shortAt)
	}
	if !almostEqual(longAt, 1.5, 1e-9) {
		t.Fatalf("long done at %v, want 1.5", longAt)
	}
}

func TestPerUserCapWithFewUsers(t *testing.T) {
	e := NewEngine()
	// 4 cores, each task at most 1 core.
	r := NewSharedResource(e, "cpu", 4, 1)
	var at [2]float64
	r.Submit(2, func() { at[0] = e.Now() })
	r.Submit(2, func() { at[1] = e.Now() })
	e.Run()
	// Two tasks on four cores: each runs at its 1-core cap, 2 s each.
	for i, v := range at {
		if !almostEqual(v, 2, 1e-9) {
			t.Fatalf("task %d done at %v, want 2", i, v)
		}
	}
}

func TestOversubscriptionSharesCapacity(t *testing.T) {
	e := NewEngine()
	r := NewSharedResource(e, "cpu", 4, 1)
	n := 16
	doneAt := make([]float64, n)
	for i := 0; i < n; i++ {
		i := i
		r.Submit(1, func() { doneAt[i] = e.Now() })
	}
	e.Run()
	// 16 tasks share 4 cores: each at 0.25 core => 4 s.
	for i, v := range doneAt {
		if !almostEqual(v, 4, 1e-9) {
			t.Fatalf("task %d done at %v, want 4", i, v)
		}
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	e := NewEngine()
	r := NewSharedResource(e, "cpu", 1, 0)
	done := false
	r.Submit(0, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("zero-work demand never completed")
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v for zero work", e.Now())
	}
}

func TestCancelDemand(t *testing.T) {
	e := NewEngine()
	r := NewSharedResource(e, "cpu", 10, 0)
	var firstAt float64
	r.Submit(10, func() { firstAt = e.Now() })
	d := r.Submit(10, func() { t.Error("canceled demand completed") })
	e.At(0.5, func() { r.Cancel(d) })
	e.Run()
	// First shares at 5/s until t=0.5 (2.5 units done), then runs alone
	// at 10/s for the remaining 7.5 units: done at t=1.25.
	if !almostEqual(firstAt, 1.25, 1e-9) {
		t.Fatalf("first done at %v, want 1.25", firstAt)
	}
}

func TestUtilizationInstantaneous(t *testing.T) {
	e := NewEngine()
	r := NewSharedResource(e, "cpu", 4, 1)
	// util reads utilisation the way the samplers do: UsedIntegral's
	// growth over the next second, divided by capacity. No demand
	// starts or ends inside the window, so the mean is the level.
	util := func() float64 {
		before := r.UsedIntegral()
		e.RunUntil(e.Now() + 1)
		return (r.UsedIntegral() - before) / r.Capacity()
	}
	if u := util(); u != 0 {
		t.Fatalf("idle utilization = %v, want 0", u)
	}
	r.Submit(100, nil)
	if u := util(); !almostEqual(u, 0.25, 1e-9) {
		t.Fatalf("one capped task utilization = %v, want 0.25", u)
	}
	for i := 0; i < 7; i++ {
		r.Submit(100, nil)
	}
	if u := util(); !almostEqual(u, 1.0, 1e-9) {
		t.Fatalf("8-task utilization = %v, want 1", u)
	}
}

// Work conservation: total service delivered equals total work submitted
// once everything completes, for arbitrary arrival patterns.
func TestWorkConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		e := NewEngine()
		r := NewSharedResource(e, "cpu", 1+rng.Float64()*10, rng.Float64()*5)
		totalWork := 0.0
		completed := 0
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			w := rng.Float64() * 20
			totalWork += w
			at := rng.Float64() * 10
			e.At(at, func() {
				r.Submit(w, func() { completed++ })
			})
		}
		e.Run()
		if completed != n {
			t.Fatalf("trial %d: completed %d of %d", trial, completed, n)
		}
		got := r.UsedIntegral()
		if !almostEqual(got, totalWork, 1e-5*math.Max(1, totalWork)) {
			t.Fatalf("trial %d: served %v, submitted %v", trial, got, totalWork)
		}
	}
}

// TestUsedIntegralIsPassive: reading the integral at arbitrary instants
// leaves every completion time bit-identical to an unread twin, and a
// read returns exactly what Settle then stores.
func TestUsedIntegralIsPassive(t *testing.T) {
	run := func(read bool) []float64 {
		rng := rand.New(rand.NewSource(11))
		e := NewEngine()
		r := NewSharedResource(e, "net", 7, 3)
		var done []float64
		for i := 0; i < 40; i++ {
			w, at, readAt := rng.Float64()*20, rng.Float64()*10, rng.Float64()*15
			e.At(at, func() { r.Submit(w, func() { done = append(done, e.Now()) }) })
			if read {
				e.At(readAt, func() {
					got := r.UsedIntegral()
					if again := r.UsedIntegral(); again != got {
						t.Errorf("two reads at %v differ: %v vs %v", e.Now(), got, again)
					}
				})
			}
		}
		e.Run()
		return done
	}
	plain, read := run(false), run(true)
	if len(plain) != 40 || len(read) != len(plain) {
		t.Fatalf("completions: %d plain, %d read", len(plain), len(read))
	}
	for i := range plain {
		if plain[i] != read[i] {
			t.Fatalf("completion %d moved: %v unread, %v read", i, plain[i], read[i])
		}
	}

	e := NewEngine()
	r := NewSharedResource(e, "cpu", 4, 1)
	r.Submit(10, nil)
	r.Submit(3, nil)
	e.RunUntil(1.3)
	got := r.UsedIntegral()
	r.Settle()
	if r.usedIntegral != got {
		t.Fatalf("read %v, Settle stored %v", got, r.usedIntegral)
	}
}
