package fabric

import (
	"math/rand"

	"drill/internal/metrics"
	"drill/internal/topo"
)

// Group is one symmetric set of equal-cost output ports toward a
// destination, with a weight proportional to its aggregate capacity. In a
// symmetric fabric every destination has exactly one group; the Quiver
// decomposition of §3.4 produces several after failures or with
// heterogeneous links.
type Group struct {
	// ID identifies the unique port set within the switch (InstallGroups
	// assigns it); engines key their per-group state (DRILL memory, RR
	// cursors) on it so state is shared across destinations that use the
	// same physical ports.
	ID     int32
	Ports  []int32 // Network port indexes, sorted
	Weight uint32  // relative share of flows hashed to this group
}

// Engine is one forwarding engine of a switch. Engines make parallel,
// independent decisions; each keeps private per-group scheduler state.
type Engine struct {
	Index int
	Rng   *rand.Rand

	// state[groupID] holds the balancer's per-engine scheduler state for
	// that port set (e.g. a DRILL selector or an RR cursor). ApplyEpoch
	// sizes it to the switch's distinct port sets.
	state []any
}

// State returns the engine's scheduler state for group gid, creating it via
// mk on first use.
func (e *Engine) State(gid int32, mk func() any) any {
	if e.state[gid] == nil {
		e.state[gid] = mk()
	}
	return e.state[gid]
}

// Switch is a fabric switch: a set of output ports, per-destination
// forwarding groups, and parallel forwarding engines.
type Switch struct {
	Node topo.NodeID
	Kind topo.NodeKind

	// dropHop is the hop class charged for packets dropped at this switch
	// itself (destination unreachable): the switch's forwarding tier.
	dropHop metrics.HopClass

	// dom is the shard domain owning this switch's events and stats; the
	// forwarding path charges unreachable-destination drops to it.
	dom *domain

	OutPorts []int32 // Network port indexes of this switch's output ports

	// tables[dstLeafIdx] lists the groups toward that leaf (nil for the
	// switch's own leaf index — local delivery uses Network.hostNIC).
	tables [][]Group

	engines []*Engine
}

// Engines returns the switch's forwarding engines.
func (s *Switch) Engines() []*Engine { return s.engines }

// Groups returns the forwarding groups toward dstLeafIdx.
func (s *Switch) Groups(dstLeafIdx int32) []Group { return s.tables[dstLeafIdx] }

// GroupForFlow picks a group by flow hash, honoring weights — the "flow
// classification" step of §3.4.2. It requires at least one group.
func GroupForFlow(groups []Group, hash uint32) *Group {
	if len(groups) == 1 {
		return &groups[0]
	}
	var total uint32
	for i := range groups {
		total += groups[i].Weight
	}
	// Independent re-hash so group choice is decorrelated from port choice.
	h := hash*2654435761 + 0x9747b28c
	x := h % total
	for i := range groups {
		if x < groups[i].Weight {
			return &groups[i]
		}
		x -= groups[i].Weight
	}
	return &groups[len(groups)-1]
}
