package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"dynamicmr/internal/core"
)

func TestRunCellsExecutesAllInAnyOrder(t *testing.T) {
	for _, par := range []int{0, 1, 2, 8, 100} {
		n := 37
		got := make([]int, n)
		if err := runCells(par, n, func(i int) error {
			got[i] = i + 1
			return nil
		}); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("par=%d: cell %d not executed", par, i)
			}
		}
	}
	if err := runCells(4, 0, func(int) error { t.Fatal("cell called for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestRunCellsStopsSchedulingOnError checks a property that holds under
// any schedule. Every cell above the failing cell 3 holds its worker
// until the failure is recorded, so before that moment each of the other
// par-1 workers can have taken at most one of them. If no cell above 3
// is taken after the failure is recorded, at most par-1 start in all.
func TestRunCellsStopsSchedulingOnError(t *testing.T) {
	const fail, par = 3, 4
	boom := errors.New("boom")
	recorded := make(chan struct{})
	onCellFailed = func(i int) {
		if i == fail {
			close(recorded)
		}
	}
	defer func() { onCellFailed = nil }()
	var above atomic.Int64
	err := runCells(par, 100, func(i int) error {
		switch {
		case i == fail:
			return boom
		case i > fail:
			above.Add(1)
			<-recorded
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := above.Load(); n > par-1 {
		t.Fatalf("%d cells above the failing one started, want at most %d", n, par-1)
	}

	// Sequential keeps fail-fast semantics.
	var seq int
	err = runCells(1, 10, func(i int) error {
		seq++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || seq != 3 {
		t.Fatalf("sequential: err=%v after %d cells, want boom after 3", err, seq)
	}
}

func TestRunCellsReturnsLowestIndexError(t *testing.T) {
	err := runCells(4, 8, func(i int) error {
		return fmt.Errorf("cell %d failed", i)
	})
	if err == nil || err.Error() != "cell 0 failed" {
		t.Fatalf("err = %v, want lowest-index error", err)
	}
}

// TestFigure5ParallelCellsRace runs figure-5 cells concurrently (the
// satellite race check: two or more cells share only dsCache, the map
// output cache, and compiled registry policies) and requires the
// parallel result to equal the sequential one. Run under -race in CI.
func TestFigure5ParallelCellsRace(t *testing.T) {
	opt := tinyOptions()
	opt.Scales = []int{2}
	opt.Policies = []string{core.PolicyLA, core.PolicyHadoop}
	// Reporting turns on each cell's private tracer and sampler, so this
	// also pins registry isolation across concurrent cells.
	opt.ReportDir = t.TempDir()

	opt.Parallelism = 1
	seq, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 2
	par, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Cells) != len(par.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		if seq.Cells[i] != par.Cells[i] {
			t.Fatalf("cell %d diverged:\nseq %+v\npar %+v", i, seq.Cells[i], par.Cells[i])
		}
	}
}

// TestFigure6ParallelDeterminism is the satellite determinism check:
// Figure6 on tiny options, sequential versus -j 4, must render
// byte-identical tables and CSVs.
func TestFigure6ParallelDeterminism(t *testing.T) {
	opt := tinyOptions()
	opt.Policies = []string{core.PolicyLA, core.PolicyHadoop}

	opt.Parallelism = 1
	seq, err := Figure6(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 4
	par, err := Figure6(opt)
	if err != nil {
		t.Fatal(err)
	}

	seqTables, parTables := seq.Tables(), par.Tables()
	if len(seqTables) != len(parTables) {
		t.Fatalf("table counts differ: %d vs %d", len(seqTables), len(parTables))
	}
	for i := range seqTables {
		if s, p := seqTables[i].Render(), parTables[i].Render(); s != p {
			t.Errorf("rendered table %d differs between -j 1 and -j 4:\n--- sequential ---\n%s\n--- parallel ---\n%s", i, s, p)
		}
		if s, p := seqTables[i].CSV(), parTables[i].CSV(); s != p {
			t.Errorf("CSV %d differs between -j 1 and -j 4:\n--- sequential ---\n%s\n--- parallel ---\n%s", i, s, p)
		}
	}
}
