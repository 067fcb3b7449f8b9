package fabric

import (
	"math/rand"

	"drill/internal/core"
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

	// groups[gid] is the engine's scheduler state for the switch's port
	// set gid. ApplyEpoch sizes it to the switch's distinct port sets and
	// restarts it, because group IDs change meaning across epochs.
	groups []groupState
}

// groupState is one engine's scheduler state for one port set. One
// struct rather than a slice per scheme keeps ApplyEpoch's allocation
// count at one, whichever scheme runs.
type groupState struct {
	sel  *core.Selector // DRILL's sampler and memory, created on first use
	next int            // round-robin cursor
}

// Selector returns the engine's DRILL(d,m) selector for group gid,
// creating it on first use. Creating one draws nothing from the engine's
// random stream.
func (e *Engine) Selector(gid int32, d, m int) *core.Selector {
	st := &e.groups[gid]
	if st.sel == nil {
		st.sel = core.NewSelector(d, m, e.Rng)
	}
	return st.sel
}

// NextRR returns the engine's round-robin position for group gid and
// advances it.
func (e *Engine) NextRR(gid int32) int {
	st := &e.groups[gid]
	i := st.next
	st.next++
	return i
}

// Forwarding entries (Switch.fwd) other than a port.
const (
	noRoute     int32 = -1 // the destination leaf is unreachable, or is this switch
	viaBalancer int32 = -2 // the balancer chooses among the entry's groups and their ports
)

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

	// The flat forwarding table, which InstallGroups builds and ApplyEpoch
	// installs. fwd[dstLeafIdx] is all forward reads before it enqueues:
	// the output port itself when the entry is one single-port group,
	// noRoute, or viaBalancer. The entry's groups are
	// groups[off[dstLeafIdx]:off[dstLeafIdx+1]] in every case, and their
	// Ports are windows of one per-switch array that holds each distinct
	// port set once. Local delivery at the switch's own leaf uses
	// Network.hostNIC instead.
	fwd    []int32
	off    []int32
	groups []Group

	engines []*Engine
}

// Engines returns the switch's forwarding engines.
func (s *Switch) Engines() []*Engine { return s.engines }

// Groups returns the forwarding groups toward dstLeafIdx: empty when the
// leaf is unreachable or is this switch.
func (s *Switch) Groups(dstLeafIdx int32) []Group {
	lo, hi := s.off[dstLeafIdx], s.off[dstLeafIdx+1]
	return s.groups[lo:hi:hi]
}

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
