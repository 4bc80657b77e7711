package sampling

import (
	"math"
	"math/rand"
	"testing"

	"dynamicmr/internal/core"
	"dynamicmr/internal/data"
	"dynamicmr/internal/mapreduce"
)

// fakeSplits builds n standalone splits of `recs` records each.
func fakeSplits(n int, recs int) []mapreduce.Split {
	out := make([]mapreduce.Split, n)
	for i := range out {
		rr := make([]data.Record, recs)
		for j := range rr {
			rr[j] = rec(int64(j), 0)
		}
		out[i] = mapreduce.Split{Block: blockOf(rr...)}
	}
	return out
}

func initProvN(t *testing.T, k int64, n, recsEach int) *Provider {
	t.Helper()
	p := NewProvider(k, 42)
	if err := p.Init(fakeSplits(n, recsEach), nil); err != nil {
		t.Fatal(err)
	}
	return p
}

func report(completed, scheduled int, inputRecs, outputRecs int64, grab int) core.Report {
	return core.Report{
		Job: mapreduce.JobStatus{
			CompletedMaps:    completed,
			ScheduledMaps:    scheduled,
			MapInputRecords:  inputRecs,
			MapOutputRecords: outputRecs,
		},
		Cluster:   mapreduce.ClusterStatus{TotalMapSlots: 40},
		GrabLimit: grab,
	}
}

// TestProviderInitRequiresK: a non-positive K is an error, even when
// the JobConf carries a sample size.
func TestProviderInitRequiresK(t *testing.T) {
	conf := mapreduce.NewJobConf()
	conf.SetInt(mapreduce.ConfSampleSize, 77)
	for _, k := range []int64{0, -1} {
		if err := NewProvider(k, 1).Init(fakeSplits(2, 5), conf); err == nil {
			t.Fatalf("k=%d accepted", k)
		}
	}
	if err := NewProvider(77, 1).Init(fakeSplits(2, 5), nil); err != nil {
		t.Fatal(err)
	}
}

func TestInitialSplitsRespectGrab(t *testing.T) {
	p := initProvN(t, 100, 20, 10)
	got := p.InitialSplits(4)
	if len(got) != 4 {
		t.Fatalf("initial = %d, want 4", len(got))
	}
	if p.Remaining() != 16 {
		t.Fatalf("remaining = %d", p.Remaining())
	}
	// Unbounded grab takes everything.
	p2 := initProvN(t, 100, 20, 10)
	if got := p2.InitialSplits(math.MaxInt); len(got) != 20 {
		t.Fatalf("unbounded initial = %d", len(got))
	}
}

func TestRandomOrderIsSeededAndUniform(t *testing.T) {
	shared := fakeSplits(50, 1)
	a := NewProvider(10, 42)
	b := NewProvider(10, 42)
	if err := a.Init(shared, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Init(shared, nil); err != nil {
		t.Fatal(err)
	}
	sa := a.InitialSplits(50)
	sb := b.InitialSplits(50)
	for i := range sa {
		if sa[i].Block != sb[i].Block {
			t.Fatal("same seed produced different orders")
		}
	}
	c := NewProvider(10, 43)
	c.Init(shared, nil)
	sc := c.InitialSplits(50)
	same := 0
	for i := range sa {
		if sa[i].Block == sc[i].Block {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical orders")
	}
}

// TestPooledRandMatchesFreshSource pins the split orders of both
// providers and the random-k reservoir to what a fresh
// rand.New(rand.NewSource(seed)) gives, with the pooled generator
// drawn from before each use, so a reseeded generator carries nothing
// over from its last job.
func TestPooledRandMatchesFreshSource(t *testing.T) {
	shared := fakeSplits(50, 1)
	vals := make([]data.Record, 100)
	for i := range vals {
		vals[i] = rec(int64(i), 0)
	}
	dirty := func() {
		rng := seededRand(99)
		rng.Int63()
		rng.Shuffle(7, func(int, int) {})
		rngPool.Put(rng)
	}
	for _, seed := range []int64{1, 42, 7877, -5} {
		want := append([]mapreduce.Split(nil), shared...)
		fresh := rand.New(rand.NewSource(seed))
		fresh.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })

		dirty()
		p := NewProvider(10, seed)
		if err := p.Init(shared, nil); err != nil {
			t.Fatal(err)
		}
		dirty()
		e := NewEstimatorProvider(0.1, seed)
		if err := e.Init(shared, nil); err != nil {
			t.Fatal(err)
		}
		gotP, gotE := p.InitialSplits(50), e.InitialSplits(50)
		for i := range want {
			if gotP[i].Block != want[i].Block || gotE[i].Block != want[i].Block {
				t.Fatalf("seed %d: split %d differs from the fresh source's shuffle", seed, i)
			}
		}

		const k = 10
		reservoir := append([]data.Record(nil), vals[:k]...)
		fresh = rand.New(rand.NewSource(seed))
		for i := int64(k); i < int64(len(vals)); i++ {
			if j := fresh.Int63n(i + 1); j < k {
				reservoir[j] = vals[i]
			}
		}
		dirty()
		out := &mapreduce.Collector{}
		if err := (&Reducer{K: k, Random: true, Seed: seed}).Reduce(DummyKey, vals, out); err != nil {
			t.Fatal(err)
		}
		for i, kv := range out.Pairs() {
			if kv.Value.String() != reservoir[i].String() {
				t.Fatalf("seed %d: reservoir slot %d = %s, want %s", seed, i, kv.Value, reservoir[i])
			}
		}
	}
}

func TestEndOfInputWhenSampleComplete(t *testing.T) {
	p := initProvN(t, 100, 20, 1000)
	p.InitialSplits(4)
	resp, _ := p.Next(report(4, 4, 4000, 100, 8))
	if resp != core.EndOfInput {
		t.Fatalf("resp = %v, want end of input (output == k)", resp)
	}
	resp, _ = p.Next(report(4, 4, 4000, 150, 8))
	if resp != core.EndOfInput {
		t.Fatalf("resp = %v, want end of input (output > k)", resp)
	}
}

func TestEndOfInputWhenExhausted(t *testing.T) {
	p := initProvN(t, 1000, 4, 100)
	p.InitialSplits(4)
	resp, _ := p.Next(report(4, 4, 400, 1, 8))
	if resp != core.EndOfInput {
		t.Fatalf("resp = %v, want end of input (no partitions left)", resp)
	}
}

func TestWaitWhenGrabZero(t *testing.T) {
	p := initProvN(t, 100, 20, 1000)
	p.InitialSplits(4)
	resp, _ := p.Next(report(4, 4, 4000, 10, 0))
	if resp != core.NoInputAvailable {
		t.Fatalf("resp = %v, want wait-and-see at grab 0", resp)
	}
}

func TestNoStatsFeedsAllowance(t *testing.T) {
	p := initProvN(t, 100, 20, 1000)
	p.InitialSplits(2)
	resp, splits := p.Next(report(0, 2, 0, 0, 5))
	if resp != core.InputAvailable || len(splits) != 5 {
		t.Fatalf("resp = %v with %d splits, want input available with 5", resp, len(splits))
	}
}

func TestSelectivityDrivenGrab(t *testing.T) {
	// 40 splits x 1000 records. After 4 completed maps with 4000
	// records and 40 matches: ρ̂ = 0.01, recs/split = 1000, so each
	// split yields ~10 matches. Deficit = 100-40 = 60 → 6 splits.
	p := initProvN(t, 100, 40, 1000)
	p.InitialSplits(4)
	resp, splits := p.Next(report(4, 4, 4000, 40, 100))
	if resp != core.InputAvailable {
		t.Fatalf("resp = %v", resp)
	}
	if len(splits) != 6 {
		t.Fatalf("grabbed %d splits, want 6 (selectivity estimate)", len(splits))
	}
}

func TestGrabBoundedByLimit(t *testing.T) {
	p := initProvN(t, 10000, 40, 1000)
	p.InitialSplits(4)
	// Deficit would need ~100 splits, grab limit is 8.
	resp, splits := p.Next(report(4, 4, 4000, 4, 8))
	if resp != core.InputAvailable || len(splits) != 8 {
		t.Fatalf("resp = %v with %d splits, want 8 (grab-limited)", resp, len(splits))
	}
}

func TestPendingMapsAccountedFor(t *testing.T) {
	// 4 of 12 scheduled maps done: ρ̂ = 0.05 (200 matches in 4000 recs).
	// Pending 8 maps × 1000 recs × 0.05 = 400 expected → with k = 500
	// and 200 found the deficit is 500-200-400 < 0 → wait and see.
	p := initProvN(t, 500, 40, 1000)
	p.InitialSplits(12)
	resp, _ := p.Next(report(4, 12, 4000, 200, 20))
	if resp != core.NoInputAvailable {
		t.Fatalf("resp = %v, want wait-and-see (pending covers deficit)", resp)
	}
}

func TestZeroSelectivityKeepsFeeding(t *testing.T) {
	p := initProvN(t, 100, 40, 1000)
	p.InitialSplits(4)
	resp, splits := p.Next(report(4, 4, 4000, 0, 6))
	if resp != core.InputAvailable || len(splits) != 6 {
		t.Fatalf("resp = %v with %d, want full allowance at ρ̂=0", resp, len(splits))
	}
}

func TestMinimumOneSplit(t *testing.T) {
	// Tiny deficit still grabs at least one split.
	p := initProvN(t, 101, 40, 1000)
	p.InitialSplits(4)
	// 100 matches from 4000 recs; deficit 1; ρ̂ = 0.025 → 40 records →
	// 0.04 splits → ceil → 1.
	resp, splits := p.Next(report(4, 4, 4000, 100, 10))
	if resp != core.InputAvailable || len(splits) != 1 {
		t.Fatalf("resp = %v with %d, want exactly 1 split", resp, len(splits))
	}
}

func TestProviderNeverHandsOutDuplicates(t *testing.T) {
	p := initProvN(t, 1_000_000, 30, 10)
	seen := map[any]bool{}
	count := 0
	mark := func(ss []mapreduce.Split) {
		for _, s := range ss {
			if seen[s.Block] {
				t.Fatal("split handed out twice")
			}
			seen[s.Block] = true
			count++
		}
	}
	mark(p.InitialSplits(7))
	for p.Remaining() > 0 {
		resp, ss := p.Next(report(count, count, int64(count*10), 0, 7))
		if resp == core.EndOfInput {
			break
		}
		mark(ss)
	}
	if count != 30 {
		t.Fatalf("handed out %d splits, want 30", count)
	}
}
