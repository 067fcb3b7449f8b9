package lb

import (
	"drill/internal/fabric"
	"drill/internal/topo"
	"drill/internal/units"
)

// WCMP (Zhou et al., EuroSys'14) hashes flows across next hops with static
// weights proportional to the aggregate bottleneck capacity of the shortest
// paths behind each hop — ECMP's fix for asymmetric Clos. Like ECMP it is
// per-flow and load-oblivious; the paper compares against it in the
// heterogeneous-topology experiment (Fig. 13).
type WCMP struct{}

// Name implements fabric.Balancer.
func (WCMP) Name() string { return "WCMP" }

// Choose implements fabric.Balancer: the weighted group pick does all the
// work, since each group holds exactly one port.
func (WCMP) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	g := fabric.GroupForFlow(sw.Groups(pkt.DstLeafIdx), pkt.Hash)
	return g.Ports[0]
}

// BuildTables implements fabric.TableBuilder: one single-port group per
// next hop, in ascending port order, weighted by the summed bottleneck
// capacity of the shortest paths through it.
func (WCMP) BuildTables(net *fabric.Network) {
	var caps []units.Rate // per next hop, reused across entries
	net.InstallGroups(func(sw *fabric.Switch, leaf topo.NodeID, add func([]topo.ChanID, uint32)) {
		hops := net.Routes.NextHops(sw.Node, leaf)
		// NextHops lists channels (= ports) in ascending order, and Paths
		// groups paths by first hop in that order.
		paths := net.Routes.Paths(sw.Node, leaf)
		caps = append(caps[:0], make([]units.Rate, len(hops))...)
		var g units.Rate
		for k, c := range hops {
			for ; len(paths) > 0 && paths[0][0] == c; paths = paths[1:] {
				caps[k] += net.Topo.Bottleneck(paths[0])
			}
			g = topo.GCD(g, caps[k])
		}
		for k := range hops {
			add(hops[k:k+1], topo.Weight(caps[k], g))
		}
	})
}
