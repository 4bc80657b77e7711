package skew

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWeightsSumToOne(t *testing.T) {
	for _, z := range []float64{0, 0.5, 1, 2} {
		w := Weights(z, 40)
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("z=%v: weights sum to %v", z, sum)
		}
	}
}

func TestWeightsZeroSkewUniform(t *testing.T) {
	w := Weights(0, 40)
	for i, v := range w {
		if math.Abs(v-1.0/40) > 1e-12 {
			t.Fatalf("z=0 weight[%d] = %v, want 0.025", i, v)
		}
	}
}

func TestWeightsMonotoneDecreasing(t *testing.T) {
	for _, z := range []float64{0.5, 1, 2} {
		w := Weights(z, 100)
		for i := 1; i < len(w); i++ {
			if w[i] > w[i-1] {
				t.Fatalf("z=%v: weights not decreasing at %d", z, i)
			}
		}
	}
}

func TestWeightsMatchFormula(t *testing.T) {
	// f(k; z, N) = (1/k^z) / H_{N,z}. Check k=1 for z=2, N=40:
	// H_{40,2} ≈ 1.62024; weight ≈ 0.61719.
	w := Weights(2, 40)
	if math.Abs(w[0]-0.61719) > 1e-3 {
		t.Fatalf("z=2 top weight = %v, want ≈0.617", w[0])
	}
	// z=1, N=40: H_40 ≈ 4.27854; top ≈ 0.23372.
	w = Weights(1, 40)
	if math.Abs(w[0]-0.23372) > 1e-3 {
		t.Fatalf("z=1 top weight = %v, want ≈0.2337", w[0])
	}
}

func TestWeightsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Weights(1, 0) },
		func() { Weights(-1, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCountsConserveTotal(t *testing.T) {
	f := func(totalRaw uint16, seed int64) bool {
		total := int64(totalRaw)
		c := Counts(total, 1, 40, seed)
		var sum int64
		for _, v := range c {
			sum += v
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCountsDeterministic(t *testing.T) {
	a := Counts(10000, 2, 40, 7)
	b := Counts(10000, 2, 40, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("counts differ at %d with same seed", i)
		}
	}
	c := Counts(10000, 2, 40, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("counts identical across different seeds")
	}
}

// Paper Figure 4 shape: 15 000 matches over 40 partitions. z=2 puts
// most matches (paper: 8 700, analytic ≈ 9 258) in the top partition;
// z=1 puts ≈3 100–3 500 there; z=0 puts exactly 375 everywhere.
func TestFigure4Shape(t *testing.T) {
	const total = 15000

	c0 := Counts(total, 0, 40, 1)
	for i, v := range c0 {
		if math.Abs(float64(v)-375) > 375*0.25 {
			t.Fatalf("z=0 partition %d count %d far from uniform 375", i, v)
		}
	}

	c1 := Counts(total, 1, 40, 1)
	if c1[0] < 2800 || c1[0] > 4200 {
		t.Fatalf("z=1 top partition count %d outside [2800,4200] (paper: 3128)", c1[0])
	}

	c2 := Counts(total, 2, 40, 1)
	if c2[0] < 8000 || c2[0] > 10500 {
		t.Fatalf("z=2 top partition count %d outside [8000,10500] (paper: 8700)", c2[0])
	}
	if c2[0] <= c1[0] {
		t.Fatalf("higher skew should concentrate more: z2 top %d <= z1 top %d", c2[0], c1[0])
	}
}

func TestSamplerDrawInRange(t *testing.T) {
	s := NewSampler(1.5, 17, 3)
	for i := 0; i < 10000; i++ {
		r := s.Draw()
		if r < 0 || r >= 17 {
			t.Fatalf("Draw() = %d out of [0,17)", r)
		}
	}
}

func TestSamplerMatchesWeights(t *testing.T) {
	n := 10
	z := 1.0
	s := NewSampler(z, n, 99)
	counts := make([]float64, n)
	draws := 200000
	for i := 0; i < draws; i++ {
		counts[s.Draw()]++
	}
	w := Weights(z, n)
	for i := range w {
		got := counts[i] / float64(draws)
		if math.Abs(got-w[i]) > 0.01 {
			t.Fatalf("rank %d frequency %v, want %v", i, got, w[i])
		}
	}
}
