// Package dfs implements the distributed-filesystem substrate: files are
// sequences of blocks, each block holds a record source and is placed on
// one or more (node, disk) locations. Block placement is round-robin
// across all disks, matching the paper's setup of input "evenly
// distributed across the disks with no replication" (§V-B).
package dfs

import (
	"fmt"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/data"
)

// BlockID identifies a block within one DFS instance.
type BlockID int64

// Location is a (node, disk) pair holding a replica.
type Location struct {
	Node int
	Disk int
}

// Block is one stored partition of a file.
type Block struct {
	ID       BlockID
	FileName string
	// Index is the block's ordinal within its file.
	Index int
	// Source supplies the block's records (often generator-backed).
	Source data.Source
	// Replicas are the locations holding the block, primary first.
	Replicas []Location
}

// BlockStats returns the block's load-time zone-map summary for a
// predicate fingerprint, when the source computed one. Any replica can
// answer from it — the statistics live with the block metadata, so no
// read is charged.
func (b *Block) BlockStats(fingerprint string) (data.BlockStats, bool) {
	if s, ok := b.Source.(data.StatSource); ok {
		return s.BlockStats(fingerprint)
	}
	return data.BlockStats{}, false
}

// SizeBytes returns the block length.
func (b *Block) SizeBytes() int64 { return b.Source.SizeBytes() }

// NumRecords returns the block's record count.
func (b *Block) NumRecords() int64 { return b.Source.NumRecords() }

// LocalTo reports whether some replica lives on the given node, and if
// so which location.
func (b *Block) LocalTo(node int) (Location, bool) {
	for _, l := range b.Replicas {
		if l.Node == node {
			return l, true
		}
	}
	return Location{}, false
}

// Primary returns the first replica location.
func (b *Block) Primary() Location { return b.Replicas[0] }

// File is a named sequence of blocks.
type File struct {
	Name   string
	Blocks []*Block
}

// TotalBytes sums block sizes.
func (f *File) TotalBytes() int64 {
	var t int64
	for _, b := range f.Blocks {
		t += b.SizeBytes()
	}
	return t
}

// TotalRecords sums block record counts.
func (f *File) TotalRecords() int64 {
	var t int64
	for _, b := range f.Blocks {
		t += b.NumRecords()
	}
	return t
}

// DFS is the namespace plus placement policy.
type DFS struct {
	cluster   *cluster.Cluster
	files     map[string]*File
	nextBlock BlockID
	rr        int // round-robin cursor over (node, disk) pairs
}

// New creates an empty filesystem over the cluster.
func New(c *cluster.Cluster) *DFS {
	return &DFS{cluster: c, files: make(map[string]*File)}
}

// location maps a flat disk ordinal to a (node, disk) pair.
func location(ordinal int) Location {
	return Location{Node: ordinal / cluster.DisksPerNode, Disk: ordinal % cluster.DisksPerNode}
}

// Create stores a file with one block per source, placing replicas
// round-robin across all disks. Replication < 1 defaults to 1 (the
// paper's "no replication" setup).
func (d *DFS) Create(name string, sources []data.Source, replication int) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("dfs: empty file name")
	}
	if _, exists := d.files[name]; exists {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("dfs: file %q needs at least one block", name)
	}
	if replication < 1 {
		replication = 1
	}
	if replication > cluster.Nodes {
		return nil, fmt.Errorf("dfs: replication %d exceeds %d nodes", replication, cluster.Nodes)
	}
	f := &File{Name: name}
	for i, src := range sources {
		b := &Block{ID: d.nextBlock, FileName: name, Index: i, Source: src}
		d.nextBlock++
		// Primary replica round-robin over all disks; further replicas
		// on subsequent *nodes* (one replica per node, as HDFS ensures).
		primary := location(d.rr % cluster.TotalDisks)
		d.rr++
		b.Replicas = append(b.Replicas, primary)
		for r := 1; r < replication; r++ {
			loc := Location{
				Node: (primary.Node + r) % cluster.Nodes,
				Disk: (primary.Disk + r) % cluster.DisksPerNode,
			}
			b.Replicas = append(b.Replicas, loc)
		}
		f.Blocks = append(f.Blocks, b)
	}
	d.files[name] = f
	return f, nil
}
