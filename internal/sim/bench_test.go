package sim

import "testing"

func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		if len(e.queue) > 1024 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkSharedResourceChurn(b *testing.B) {
	e := NewEngine()
	r := NewSharedResource(e, "cpu", 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Submit(1, nil)
		if len(r.active) > 256 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEventCancelChurn exercises schedule-cancel churn, where the
// Event freelist recycles every cancelled event.
func BenchmarkEventCancelChurn(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	var ev *Event
	for i := 0; i < b.N; i++ {
		if ev != nil {
			e.Cancel(ev)
		}
		ev = e.After(1, func() {})
		if i%1024 == 1023 {
			e.Run()
			ev = nil
		}
	}
	e.Run()
}

// BenchmarkCompletionRearm moves a resource's pending completion inside
// a 70-event heap, sample-skew's mean event-queue length. The resource
// serves two demands; each op submits a third and cancels it, which
// re-arms the completion twice, between virtual times 80 and 120 among
// placeholders spread over (0, 105]. The clock stays at zero, so
// nothing fires.
func BenchmarkCompletionRearm(b *testing.B) {
	e := NewEngine()
	for i := 1; i <= 70; i++ {
		e.At(float64(i)*1.5, func() {})
	}
	r := NewSharedResource(e, "disk", 1, 1)
	r.Submit(40, nil)
	r.Submit(40, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Cancel(r.Submit(40, nil))
	}
}
