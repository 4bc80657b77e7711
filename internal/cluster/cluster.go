// Package cluster models the hardware of a shared-nothing Hadoop
// cluster on top of the discrete-event engine: nodes with cores and
// disks, a shared network fabric, and per-node map/reduce slot bounds.
// The paper's test cluster (§V-A) — 10 IBM x3650 nodes, each with four
// cores, 12 GB RAM and four disks — is the hardware every cluster
// models; only the map slot count and per-node speed vary (Config).
package cluster

import (
	"fmt"

	"dynamicmr/internal/sim"
)

// The §V-A testbed's hardware, which every simulated cluster models.
const (
	// Nodes is the number of worker machines.
	Nodes = 10
	// CoresPerNode is the CPU core count per machine.
	CoresPerNode = 4
	// DisksPerNode is the number of independent data disks per machine.
	DisksPerNode = 4
	// DiskBandwidth is each disk's sequential throughput in bytes/s
	// (~80 MB/s, 2012-era SATA).
	DiskBandwidth = 80e6
	// NetworkBandwidth is the aggregate fabric capacity in bytes/s
	// (10 GbE).
	NetworkBandwidth = 1250e6
	// NICBandwidth caps a single stream's network rate in bytes/s
	// (1 GbE).
	NICBandwidth = 125e6
	// ReduceSlotsPerNode bounds concurrent reduce tasks per node.
	ReduceSlotsPerNode = 2

	// TotalCores is the cluster-wide core count.
	TotalCores = Nodes * CoresPerNode
	// TotalDisks is the cluster-wide disk count.
	TotalDisks = Nodes * DisksPerNode
)

// Config holds what varies between runs of the testbed: the map slot
// count and per-node speed.
type Config struct {
	// MapSlotsPerNode bounds concurrent map tasks per node (§II-C:
	// "a Hadoop cluster is pre-configured with a bound on the number of
	// concurrent map tasks per node"). The paper uses 4 for the
	// single-user study and 16 for multi-user throughput.
	MapSlotsPerNode int
	// NodeSpeedFactors optionally scales each node's CPU and disk
	// capacity (stragglers: factor < 1 makes a node slower). Empty
	// means all nodes run at full speed; otherwise the slice must have
	// one entry per node.
	NodeSpeedFactors []float64
}

// PaperConfig returns the §V-A cluster's single-user setting: 4 map
// slots per node.
func PaperConfig() Config {
	return Config{MapSlotsPerNode: 4}
}

// MultiUser returns the configuration with 16 map slots per node, the
// setting §V-D arrived at for maximum multi-user throughput.
func (c Config) MultiUser() Config {
	c.MapSlotsPerNode = 16
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MapSlotsPerNode <= 0 {
		return fmt.Errorf("cluster: MapSlotsPerNode must be positive, got %d", c.MapSlotsPerNode)
	}
	if len(c.NodeSpeedFactors) != 0 {
		if len(c.NodeSpeedFactors) != Nodes {
			return fmt.Errorf("cluster: %d speed factors for %d nodes", len(c.NodeSpeedFactors), Nodes)
		}
		for i, f := range c.NodeSpeedFactors {
			if f <= 0 {
				return fmt.Errorf("cluster: node %d speed factor %v must be positive", i, f)
			}
		}
	}
	return nil
}

// speed returns node i's speed factor.
func (c Config) speed(i int) float64 {
	if len(c.NodeSpeedFactors) == 0 {
		return 1
	}
	return c.NodeSpeedFactors[i]
}

// TotalMapSlots returns the cluster-wide map slot capacity ("TS" in the
// paper's grab-limit formulas).
func (c Config) TotalMapSlots() int { return Nodes * c.MapSlotsPerNode }

// Node is one worker machine: a shared CPU (capacity = cores, one task
// capped at one core) and independent disks.
type Node struct {
	ID    int
	CPU   *sim.SharedResource
	Disks []*sim.SharedResource
}

// Cluster is the instantiated hardware.
type Cluster struct {
	Eng     *sim.Engine
	Cfg     Config
	Nodes   []*Node
	Network *sim.SharedResource
}

// New builds a cluster on an engine. It panics on invalid configuration
// (construction-time bug, not a runtime condition).
func New(eng *sim.Engine, cfg Config) *Cluster {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{Eng: eng, Cfg: cfg}
	for i := 0; i < Nodes; i++ {
		speed := cfg.speed(i)
		n := &Node{
			ID:  i,
			CPU: sim.NewSharedResource(eng, fmt.Sprintf("node%d.cpu", i), CoresPerNode*speed, speed),
		}
		for d := 0; d < DisksPerNode; d++ {
			n.Disks = append(n.Disks,
				sim.NewSharedResource(eng, fmt.Sprintf("node%d.disk%d", i, d),
					DiskBandwidth*speed, DiskBandwidth*speed))
		}
		c.Nodes = append(c.Nodes, n)
	}
	c.Network = sim.NewSharedResource(eng, "network", NetworkBandwidth, NICBandwidth)
	return c
}

// CPUUsedIntegral returns core-seconds consumed on this node up to now.
func (n *Node) CPUUsedIntegral() float64 { return n.CPU.UsedIntegral() }

// CPUCapacity returns the node's core capacity (core-seconds/second),
// including any speed factor.
func (n *Node) CPUCapacity() float64 { return n.CPU.Capacity() }

// DiskUsedIntegral sums bytes transferred across this node's disks up
// to now.
func (n *Node) DiskUsedIntegral() float64 {
	var t float64
	for _, d := range n.Disks {
		t += d.UsedIntegral()
	}
	return t
}

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// NetworkUsedIntegral returns bytes moved over the shared fabric up to
// now.
func (c *Cluster) NetworkUsedIntegral() float64 { return c.Network.UsedIntegral() }

// NetworkCapacity returns the fabric's aggregate bandwidth in bytes/s.
func (c *Cluster) NetworkCapacity() float64 { return c.Network.Capacity() }

// CPUUsedIntegral sums core-seconds consumed across all nodes up to now.
func (c *Cluster) CPUUsedIntegral() float64 {
	var t float64
	for _, n := range c.Nodes {
		t += n.CPU.UsedIntegral()
	}
	return t
}

// DiskUsedIntegral sums bytes read/written across all disks up to now.
func (c *Cluster) DiskUsedIntegral() float64 {
	var t float64
	for _, n := range c.Nodes {
		for _, d := range n.Disks {
			t += d.UsedIntegral()
		}
	}
	return t
}

// CPUCapacity returns aggregate core capacity (core-seconds per second).
func (c *Cluster) CPUCapacity() float64 { return TotalCores }
