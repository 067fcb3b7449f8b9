package lb

import (
	"slices"

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
	var (
		buf  []topo.ChanID // every path of the entry, reused across entries
		caps []units.Rate  // per next hop, reused across entries
	)
	net.InstallGroups(func(sw *fabric.Switch, leaf topo.NodeID, add func([]topo.ChanID, uint32)) {
		hops := net.Routes.NextHops(sw.Node, leaf)
		// NextHops lists channels (= ports) in ascending order, and
		// AppendPaths groups paths by first hop in that order.
		buf = net.Routes.AppendPaths(buf[:0], sw.Node, leaf)
		n := net.Routes.Dist(sw.Node, leaf)
		caps = slices.Grow(caps[:0], len(hops))[:len(hops)]
		clear(caps)
		var g units.Rate
		p := 0
		for k, c := range hops {
			for ; p < len(buf) && buf[p] == c; p += n {
				caps[k] += net.Topo.Bottleneck(buf[p : p+n])
			}
			g = topo.GCD(g, caps[k])
		}
		for k := range hops {
			add(hops[k:k+1], topo.Weight(caps[k], g))
		}
	})
}
