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

// BenchmarkEventCancelChurn exercises the schedule-cancel-reschedule
// pattern SharedResource.reschedule performs on every demand change —
// the case the Event freelist targets.
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
