package experiments

import (
	"strconv"
	"testing"
)

func cellFloat(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestAblationInterval(t *testing.T) {
	tb, err := AblationInterval(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Very long intervals must cost response time versus short ones.
	short := cellFloat(t, tb, 0, 1) // 1s interval
	long := cellFloat(t, tb, 5, 1)  // 32s interval
	if long <= short {
		t.Errorf("32s-interval response %v <= 1s-interval response %v", long, short)
	}
	// Short intervals consult the provider at least as often.
	if cellFloat(t, tb, 0, 2) < cellFloat(t, tb, 5, 2) {
		t.Errorf("1s interval evaluated less often than 32s interval")
	}
}

func TestAblationThreshold(t *testing.T) {
	tb, err := AblationThreshold(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Higher thresholds never increase the consultation count.
	prev := cellFloat(t, tb, 0, 2)
	for i := 1; i < len(tb.Rows); i++ {
		cur := cellFloat(t, tb, i, 2)
		if cur > prev+0.5 {
			t.Errorf("threshold row %d: evaluations rose from %v to %v", i, prev, cur)
		}
		prev = cur
	}
	// Every row still produced a complete job (partitions > 0).
	for i := range tb.Rows {
		if cellFloat(t, tb, i, 3) <= 0 {
			t.Errorf("row %d processed no partitions", i)
		}
	}
}

func TestAblationGrabScale(t *testing.T) {
	tb, err := AblationGrabScale(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The most aggressive setting is at least as fast as the most
	// conservative, single-user under high skew (§V-C).
	smallF := cellFloat(t, tb, 0, 1)
	bigF := cellFloat(t, tb, len(tb.Rows)-1, 1)
	if bigF > smallF {
		t.Errorf("f=1.0 response %v worse than f=0.05 response %v on idle cluster", bigF, smallF)
	}
}

func TestAblationAdaptive(t *testing.T) {
	opt := tinyOptions()
	opt.MeasureS = 300
	tb, err := AblationAdaptive(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var cResp, haResp, adResp, cTp, haTp, adTp float64
	for i, r := range tb.Rows {
		switch r[0] {
		case "C":
			cResp, cTp = cellFloat(t, tb, i, 1), cellFloat(t, tb, i, 2)
		case "HA":
			haResp, haTp = cellFloat(t, tb, i, 1), cellFloat(t, tb, i, 2)
		case "Adaptive":
			adResp, adTp = cellFloat(t, tb, i, 1), cellFloat(t, tb, i, 2)
		}
	}
	// Idle cluster: HA beats C; adaptive must be closer to HA than C is.
	if haResp >= cResp {
		t.Fatalf("precondition failed: HA response %v >= C response %v", haResp, cResp)
	}
	if adResp > (haResp+cResp)/2 {
		t.Errorf("adaptive idle response %v not in HA's half (HA %v, C %v)", adResp, haResp, cResp)
	}
	// Shared cluster: C beats HA; adaptive must land in the
	// conservative half — the queued-backlog signal must stop it from
	// collapsing to HA's aggressive behaviour.
	if cTp <= haTp {
		t.Fatalf("precondition failed: C throughput %v <= HA throughput %v", cTp, haTp)
	}
	if adTp < (cTp+haTp)/2 {
		t.Errorf("adaptive multi-user throughput %v not in C's half (C %v, HA %v)", adTp, cTp, haTp)
	}
}
