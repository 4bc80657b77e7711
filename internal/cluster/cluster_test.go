package cluster

import (
	"testing"

	"dynamicmr/internal/sim"
)

func TestPaperConfigMatchesSectionVA(t *testing.T) {
	if Nodes != 10 || CoresPerNode != 4 || DisksPerNode != 4 {
		t.Fatalf("paper cluster should be 10 nodes x 4 cores x 4 disks, got %d x %d x %d", Nodes, CoresPerNode, DisksPerNode)
	}
	if TotalCores != 40 || TotalDisks != 40 {
		t.Fatalf("want 40 cores and 40 disks, got %d/%d", TotalCores, TotalDisks)
	}
	c := PaperConfig()
	if c.MapSlotsPerNode != 4 || c.TotalMapSlots() != 40 {
		t.Fatalf("single-user config should give 40 map slots, got %d", c.TotalMapSlots())
	}
}

func TestMultiUserSlots(t *testing.T) {
	c := PaperConfig().MultiUser()
	if c.MapSlotsPerNode != 16 || c.TotalMapSlots() != 160 {
		t.Fatalf("multi-user config should give 16 slots/node, got %+v", c)
	}
}

func TestValidate(t *testing.T) {
	good := PaperConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.MapSlotsPerNode = 0 },
	}
	for i, mutate := range bads {
		c := PaperConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewBuildsTopology(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, PaperConfig())
	if len(c.Nodes) != 10 {
		t.Fatalf("built %d nodes", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
		if len(n.Disks) != 4 {
			t.Fatalf("node %d has %d disks", i, len(n.Disks))
		}
		if n.CPU.Capacity() != 4 {
			t.Fatalf("node %d CPU capacity %v", i, n.CPU.Capacity())
		}
	}
	if c.Network == nil {
		t.Fatal("network not built")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(sim.NewEngine(), Config{})
}

func TestCPUTaskCappedAtOneCore(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, PaperConfig())
	var doneAt float64
	// 2 core-seconds of work on an idle 4-core node: takes 2s at the
	// 1-core per-task cap.
	c.Node(0).CPU.Submit(2, func() { doneAt = eng.Now() })
	eng.Run()
	if doneAt != 2 {
		t.Fatalf("task done at %v, want 2 (1-core cap)", doneAt)
	}
}

func TestAggregateIntegrals(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, PaperConfig())
	c.Node(0).CPU.Submit(3, nil)
	c.Node(5).Disks[2].Submit(80e6, nil)
	eng.Run()
	if got := c.CPUUsedIntegral(); got != 3 {
		t.Fatalf("CPUUsedIntegral = %v, want 3", got)
	}
	if got := c.DiskUsedIntegral(); got != 80e6 {
		t.Fatalf("DiskUsedIntegral = %v, want 80e6", got)
	}
	if c.CPUCapacity() != 40 {
		t.Fatalf("CPUCapacity = %v", c.CPUCapacity())
	}
}
