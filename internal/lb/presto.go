package lb

import (
	"sort"

	"drill/internal/fabric"
	"drill/internal/topo"
	"drill/internal/units"
)

// PrestoCellSize is the payload size of Presto's flowcells.
const PrestoCellSize = 64 * units.KiB

// Presto (He et al., SIGCOMM'15) moves load balancing to the sending edge:
// flows are chopped into 64KB flowcells, and each flowcell is source-routed
// round-robin across all shortest paths — fine-grained but load-oblivious.
// After failures the affected paths are pruned and the remainder is used
// with static capacity-proportional weights (WCMP-style), per §3.4's
// description of Presto's failover. The receiver-side shim that restores
// flowcell order is modelled by the transport layer's ShimTimeout.
//
// ACKs and any packet whose source route broke mid-failure fall back to
// ECMP over the default tables.
type Presto struct {
	// paths[src][dst] is the weight-expanded path list between leaf indexes.
	paths [][][][]topo.ChanID
}

// NewPresto returns Presto with PrestoCellSize flowcells.
func NewPresto() *Presto { return &Presto{} }

// Name implements fabric.Balancer.
func (p *Presto) Name() string { return "Presto" }

// BuildTables implements fabric.TableBuilder: default (ECMP) tables for
// non-source-routed traffic plus the per-leaf-pair weighted path lists.
func (p *Presto) BuildTables(net *fabric.Network) {
	net.BuildDefaultTables()
	nl := len(net.Topo.Leaves)
	p.paths = make([][][][]topo.ChanID, nl)
	for si, src := range net.Topo.Leaves {
		p.paths[si] = make([][][]topo.ChanID, nl)
		for di, dst := range net.Topo.Leaves {
			if si == di {
				continue
			}
			raw := net.Routes.Paths(src, dst)
			if len(raw) == 0 {
				continue
			}
			// Weight = bottleneck capacity, normalized; expand multiplicity.
			caps := make([]units.Rate, len(raw))
			var g units.Rate
			for i, path := range raw {
				caps[i] = net.Topo.Bottleneck(path)
				g = topo.GCD(g, caps[i])
			}
			var list [][]topo.ChanID
			for i, path := range raw {
				for k := topo.Weight(caps[i], g); k > 0; k-- {
					list = append(list, path)
				}
			}
			// Deterministic order for reproducibility.
			sort.Slice(list, func(a, b int) bool {
				x, y := list[a], list[b]
				for i := 0; i < len(x) && i < len(y); i++ {
					if x[i] != y[i] {
						return x[i] < y[i]
					}
				}
				return len(x) < len(y)
			})
			p.paths[si][di] = list
		}
	}
}

// OnSend implements fabric.SendHook: assign the packet's flowcell to a
// source route. The flow's hash, which every packet of the flow carries,
// offsets its rotation to decorrelate flows; consecutive cells of one flow
// rotate round-robin, striping the flow across all paths.
func (p *Presto) OnSend(net *fabric.Network, host *fabric.Host, pkt *fabric.Packet) {
	if pkt.Kind != fabric.Data {
		return
	}
	si := net.Topo.LeafIndex(pkt.SrcLeaf)
	di := int(pkt.DstLeafIdx)
	if si == di {
		return // same-leaf traffic has no path choice
	}
	list := p.paths[si][di]
	if len(list) == 0 {
		return
	}
	cell := uint32(pkt.Seq / int64(PrestoCellSize))
	pkt.Path = list[(cell+pkt.Hash)%uint32(len(list))]
	pkt.PathIdx = 0
}

// Choose implements fabric.Balancer: only reached by ACKs and packets whose
// source route was pruned by a failure — ECMP semantics.
func (p *Presto) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	return ECMP{}.Choose(net, sw, eng, pkt)
}
