package skew

import "testing"

func BenchmarkSamplerDraw(b *testing.B) {
	s := NewSampler(1, 800, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Draw()
	}
}

func BenchmarkCounts15k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Counts(15000, 2, 40, int64(i))
	}
}
