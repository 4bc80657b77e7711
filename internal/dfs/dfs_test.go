package dfs

import (
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
	"dynamicmr/internal/sim"
)

func testCluster() *cluster.Cluster {
	return cluster.New(sim.NewEngine(), cluster.PaperConfig())
}

func sources(n int, recsEach int) []data.Source {
	s := data.NewSchema("v")
	out := make([]data.Source, n)
	for i := 0; i < n; i++ {
		recs := make([]data.Record, recsEach)
		for j := range recs {
			recs[j] = data.NewRecord(s, []data.Value{data.Int(int64(i*recsEach + j))})
		}
		out[i] = data.NewSliceSource(s, recs)
	}
	return out
}

func TestCreateAndOpen(t *testing.T) {
	d := New(testCluster())
	f, err := d.Create("t", sources(3, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 3 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
	if d.files["t"] != f {
		t.Fatal("created file not registered under its name")
	}
	if f.TotalRecords() != 30 {
		t.Fatalf("TotalRecords = %d", f.TotalRecords())
	}
}

func TestCreateErrors(t *testing.T) {
	d := New(testCluster())
	if _, err := d.Create("", sources(1, 1), 1); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := d.Create("t", nil, 1); err == nil {
		t.Error("empty file accepted")
	}
	if _, err := d.Create("t", sources(1, 1), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("t", sources(1, 1), 1); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := d.Create("big", sources(1, 1), 11); err == nil {
		t.Error("replication > nodes accepted")
	}
}

func TestRoundRobinPlacementEven(t *testing.T) {
	d := New(testCluster())
	// 40 blocks over 40 disks: exactly one primary per disk (the
	// paper's even-distribution setup).
	f, err := d.Create("lineitem", sources(40, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Location]int{}
	for _, b := range f.Blocks {
		if len(b.Replicas) != 1 {
			t.Fatalf("block %d has %d replicas, want 1", b.ID, len(b.Replicas))
		}
		seen[b.Primary()]++
	}
	if len(seen) != 40 {
		t.Fatalf("blocks landed on %d distinct disks, want 40", len(seen))
	}
	for loc, n := range seen {
		if n != 1 {
			t.Fatalf("disk %+v has %d blocks", loc, n)
		}
	}
	// Each node holds exactly 4 blocks.
	perNode := map[int]int{}
	for loc := range seen {
		perNode[loc.Node]++
	}
	for node := 0; node < 10; node++ {
		if got := perNode[node]; got != 4 {
			t.Fatalf("node %d holds %d blocks, want 4", node, got)
		}
	}
}

func TestPlacementContinuesAcrossFiles(t *testing.T) {
	d := New(testCluster())
	f1, _ := d.Create("a", sources(1, 1), 1)
	f2, _ := d.Create("b", sources(1, 1), 1)
	if f1.Blocks[0].Primary() == f2.Blocks[0].Primary() {
		t.Fatal("round-robin cursor did not advance across files")
	}
}

func TestReplication(t *testing.T) {
	d := New(testCluster())
	f, err := d.Create("r", sources(5, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas", b.ID, len(b.Replicas))
		}
		nodes := map[int]bool{}
		for _, l := range b.Replicas {
			nodes[l.Node] = true
		}
		if len(nodes) != 3 {
			t.Fatalf("block %d replicas share nodes: %+v", b.ID, b.Replicas)
		}
	}
}

func TestLocalTo(t *testing.T) {
	d := New(testCluster())
	f, _ := d.Create("t", sources(1, 1), 1)
	b := f.Blocks[0]
	p := b.Primary()
	if loc, ok := b.LocalTo(p.Node); !ok || loc != p {
		t.Fatalf("LocalTo(primary node) = %+v, %v", loc, ok)
	}
	if _, ok := b.LocalTo(p.Node + 1); ok {
		t.Fatal("LocalTo(foreign node) = true")
	}
}

func TestBlockIDsUnique(t *testing.T) {
	d := New(testCluster())
	f1, _ := d.Create("a", sources(3, 1), 1)
	f2, _ := d.Create("b", sources(3, 1), 1)
	seen := map[BlockID]bool{}
	for _, f := range []*File{f1, f2} {
		for _, b := range f.Blocks {
			if seen[b.ID] {
				t.Fatalf("duplicate block ID %d", b.ID)
			}
			seen[b.ID] = true
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	d := New(testCluster())
	srcs := sources(2, 5)
	f, _ := d.Create("t", srcs, 1)
	want := srcs[0].SizeBytes() + srcs[1].SizeBytes()
	if f.TotalBytes() != want {
		t.Fatalf("TotalBytes = %d, want %d", f.TotalBytes(), want)
	}
	if f.Blocks[0].NumRecords() != 5 {
		t.Fatalf("block records = %d", f.Blocks[0].NumRecords())
	}
}
