// Package topo models data center topologies as graphs of hosts and
// switches connected by capacitated links, and computes the equal-cost
// shortest-path routing state (per-switch next-hop sets and full path
// enumerations) that every load balancer in this repository consumes.
//
// Builders are provided for the topologies the DRILL paper evaluates:
// two-stage leaf–spine Clos fabrics (symmetric, oversubscribed, scaled-out),
// three-stage VL2 and fat-tree networks, and heterogeneous fabrics with
// parallel links / imbalanced striping. Links can be failed to create the
// asymmetric variants of §3.4.
package topo

import (
	"fmt"

	"drill/internal/units"
)

// NodeID identifies a node (host or switch) in a Topology.
type NodeID int32

// NodeKind classifies a node's role in the fabric.
type NodeKind uint8

// Node kinds. Leaf switches are the edge (ToR) tier; Spine is the top tier
// of a 2-stage Clos; Agg and Core are the middle/top tiers of 3-stage
// fabrics (VL2's Aggregation/Intermediate, fat-tree's aggregation/core).
const (
	Host NodeKind = iota
	Leaf
	Spine
	Agg
	Core
)

func (k NodeKind) String() string {
	switch k {
	case Host:
		return "host"
	case Leaf:
		return "leaf"
	case Spine:
		return "spine"
	case Agg:
		return "agg"
	case Core:
		return "core"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is a host or switch.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
}

// LinkID identifies an undirected link; each link contributes two directed
// channels (see Chan).
type LinkID int32

// Link is an undirected cable between two nodes. Parallel links between the
// same pair are permitted (imbalanced striping, §3.4.3).
type Link struct {
	ID   LinkID
	A, B NodeID
	Rate units.Rate
	Prop units.Time
	Up   bool
}

// ChanID identifies a directed channel: channel 2*l goes A→B of link l,
// channel 2*l+1 goes B→A.
type ChanID int32

// Chan is one direction of a link.
type Chan struct {
	ID       ChanID
	Link     LinkID
	From, To NodeID
	Rate     units.Rate
	Prop     units.Time
}

// Topology is an immutable node/link structure plus mutable link up/down
// state. Routing state is computed on demand via Routes.
type Topology struct {
	Nodes []Node
	Links []Link

	// out[n] lists the directed channels leaving node n (including to hosts).
	out [][]ChanID

	// Hosts, Leaves list node IDs by role, in construction order.
	Hosts  []NodeID
	Leaves []NodeID

	// HostLeaf maps a host's NodeID to its leaf (ToR) NodeID.
	HostLeaf map[NodeID]NodeID

	// leafIndex maps a leaf NodeID to its position in Leaves.
	leafIndex map[NodeID]int
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{HostLeaf: map[NodeID]NodeID{}, leafIndex: map[NodeID]int{}}
}

// AddNode appends a node of the given kind and returns its ID.
func (t *Topology) AddNode(kind NodeKind, name string) NodeID {
	id := NodeID(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{ID: id, Kind: kind, Name: name})
	t.out = append(t.out, nil)
	switch kind {
	case Host:
		t.Hosts = append(t.Hosts, id)
	case Leaf:
		t.leafIndex[id] = len(t.Leaves)
		t.Leaves = append(t.Leaves, id)
	}
	return id
}

// AddLink connects a and b with an undirected link and returns its ID.
// If either endpoint is a host, the host-to-leaf association is recorded.
func (t *Topology) AddLink(a, b NodeID, rate units.Rate, prop units.Time) LinkID {
	if rate <= 0 {
		panic("topo: link rate must be positive")
	}
	id := LinkID(len(t.Links))
	t.Links = append(t.Links, Link{ID: id, A: a, B: b, Rate: rate, Prop: prop, Up: true})
	t.out[a] = append(t.out[a], ChanID(2*id))
	t.out[b] = append(t.out[b], ChanID(2*id+1))
	if t.Nodes[a].Kind == Host {
		t.HostLeaf[a] = b
	}
	if t.Nodes[b].Kind == Host {
		t.HostLeaf[b] = a
	}
	return id
}

// Chan materializes the directed-channel view of channel id.
func (t *Topology) Chan(id ChanID) Chan {
	l := t.Links[id/2]
	c := Chan{ID: id, Link: l.ID, Rate: l.Rate, Prop: l.Prop}
	if id%2 == 0 {
		c.From, c.To = l.A, l.B
	} else {
		c.From, c.To = l.B, l.A
	}
	return c
}

// Bottleneck returns the lowest link rate along path (0 for the empty
// path): the capacity that WCMP, Presto's failover and the Quiver's
// components weigh paths by.
func (t *Topology) Bottleneck(path []ChanID) units.Rate {
	var b units.Rate
	for _, c := range path {
		if r := t.Links[c/2].Rate; b == 0 || r < b {
			b = r
		}
	}
	return b
}

// GCD returns the greatest common divisor of two rates; GCD(0, r) is r,
// so folding it over a table's capacities from 0 yields their divisor.
func GCD(a, b units.Rate) units.Rate {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Weight expresses capacity c in units of g, the GCD of its table's
// capacities: the small integer a hardware WCMP-style table stores, c/g,
// at least 1. A table whose capacities are all zero (g = 0) weighs 1.
func Weight(c, g units.Rate) uint32 {
	if g == 0 {
		return 1
	}
	return max(uint32(c/g), 1)
}

// Out returns the directed channels leaving node n over links that are up.
func (t *Topology) Out(n NodeID) []ChanID {
	chans := t.out[n]
	up := make([]ChanID, 0, len(chans))
	for _, c := range chans {
		if t.Links[c/2].Up {
			up = append(up, c)
		}
	}
	return up
}

// OutAll returns all directed channels leaving n, including failed ones.
func (t *Topology) OutAll(n NodeID) []ChanID { return t.out[n] }

// FailLink marks link id down. Routing computed afterwards excludes it.
func (t *Topology) FailLink(id LinkID) { t.Links[id].Up = false }

// RestoreLink marks link id up again.
func (t *Topology) RestoreLink(id LinkID) { t.Links[id].Up = true }

// LeafOf returns the leaf switch a host attaches to.
func (t *Topology) LeafOf(h NodeID) NodeID {
	l, ok := t.HostLeaf[h]
	if !ok {
		panic(fmt.Sprintf("topo: node %d is not an attached host", h))
	}
	return l
}

// LeafIndex returns the dense index of leaf node id in Leaves.
func (t *Topology) LeafIndex(leaf NodeID) int {
	i, ok := t.leafIndex[leaf]
	if !ok {
		panic(fmt.Sprintf("topo: node %d is not a leaf", leaf))
	}
	return i
}

// NumSwitches reports how many nodes are switches (non-hosts).
func (t *Topology) NumSwitches() int {
	n := 0
	for _, nd := range t.Nodes {
		if nd.Kind != Host {
			n++
		}
	}
	return n
}

// LinkBetween returns the IDs of all up links directly connecting a and b.
func (t *Topology) LinkBetween(a, b NodeID) []LinkID {
	var ids []LinkID
	for _, l := range t.Links {
		if l.Up && ((l.A == a && l.B == b) || (l.A == b && l.B == a)) {
			ids = append(ids, l.ID)
		}
	}
	return ids
}

// Partition assigns every node to one of n shards for the sharded
// simulation engine, returning the per-node shard index and the effective
// shard count (n clamped to the leaf count — a shard with no leaves would
// own no traffic sources and only slow the barrier down).
//
// Leaves are cut into n contiguous runs of Leaves order, hosts follow
// their leaf — the host–leaf link is the hottest channel in the fabric and
// must never be a shard boundary — and the remaining tiers (spines, aggs,
// cores) round-robin across shards in node-ID order so every shard carries
// a similar slice of the core. Cross-shard links are then exactly
// leaf–spine/agg–core channels, whose propagation delay sets the
// synchronizer's lookahead.
func (t *Topology) Partition(n int) ([]int, int) {
	if n < 1 {
		n = 1
	}
	if n > len(t.Leaves) && len(t.Leaves) > 0 {
		n = len(t.Leaves)
	}
	assign := make([]int, len(t.Nodes))
	for i, leaf := range t.Leaves {
		assign[leaf] = i * n / len(t.Leaves)
	}
	for _, h := range t.Hosts {
		assign[h] = assign[t.HostLeaf[h]]
	}
	j := 0
	for _, nd := range t.Nodes {
		switch nd.Kind {
		case Spine, Agg, Core:
			assign[nd.ID] = j % n
			j++
		}
	}
	return assign, n
}
