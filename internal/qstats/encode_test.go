package qstats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"dynamicmr/internal/diag"
)

// flushDump is a dump the size of the observed benchmark workload's at
// its end-of-run flush: n finished queries, each diagnosed with a
// 32-node critical path (about 3.3 KB of compact JSON per query, 13 MB
// in all at n = 4,000).
func flushDump(n int) Dump {
	d := Dump{Schema: SchemaVersion, VirtualTimeS: float64(n), WallTimeS: 9.5,
		Started: int64(n), Finished: int64(n),
		Policies: []PolicyLatency{{Policy: "LA", Finished: int64(n), QPSWindowS: DefaultQPSWindowS}},
		InFlight: []QueryRecord{}}
	for i := 0; i < n; i++ {
		start := float64(i)
		dg := &diag.JobDiagnosis{JobID: i, Outcome: "ok", SubmitS: start, FinishS: start + 32, MakespanS: 32}
		for p := 0; p < 32; p++ {
			dg.CriticalPath = append(dg.CriticalPath, diag.PathNode{Kind: diag.KindMapCPU,
				Start: start + float64(p), End: start + float64(p+1), Task: p, Attempt: 1, Node: p % 10})
		}
		dg.Breakdown.MapComputeS = 32
		d.Queries = append(d.Queries, QueryRecord{ID: fmt.Sprintf("q-%06d", i+1), JobID: i,
			SQL:  "SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM lineitem WHERE L_SHIPMODE = 'DRONE' LIMIT 1000",
			User: fmt.Sprintf("user%d", i%10), Policy: "LA", K: 1000, Dynamic: true, State: StateOK,
			SubmitVT: start, FirstMatchVT: start + 3, LimitHitVT: start + 30, FinishVT: start + 32,
			SubmitWall: start / 1000, FirstMatchWall: -1, LimitHitWall: -1, FinishWall: start/1000 + 0.002,
			LatencyVirtualS: 32, LatencyWallS: 0.002, SplitsTotal: 160, SplitsGrabbed: 24,
			SplitsScanned: 24, RecordsRead: 7_200_000, Matches: 1000, Rows: 1000, ProviderEvals: 4,
			MapSeconds: 21.5, ShuffleSeconds: 1.25, ReduceSeconds: 0.75, Diagnosis: dg})
	}
	return d
}

// writeSizes records the length of every Write it receives.
type writeSizes struct {
	bytes.Buffer
	max int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.max = max(w.max, len(p))
	return w.Buffer.Write(p)
}

// TestWriteJSONStreamsBounded pins the streaming over a 4,000-query
// dump: no single Write to the destination exceeds WriteJSON's buffer
// plus one query's encoding, where json.Encoder made one Write of the
// whole document, and the bytes are still json.Encoder's.
func TestWriteJSONStreamsBounded(t *testing.T) {
	d := flushDump(4000)
	var got writeSizes
	if err := d.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	query := 0
	for i := range d.Queries {
		b, err := json.MarshalIndent(&d.Queries[i], "    ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		query = max(query, len(b))
	}
	if limit := writeBufferSize + query; got.max > limit {
		t.Errorf("largest Write is %d bytes, want at most %d (buffer %d + one query %d) of a %d-byte dump",
			got.max, limit, writeBufferSize, query, got.Len())
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("streamed dump (%d bytes) differs from json.Encoder's (%d bytes)", got.Len(), want.Len())
	}
}
