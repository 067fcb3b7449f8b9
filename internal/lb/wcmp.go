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
// next hop, weighted by downstream path capacity.
func (WCMP) BuildTables(net *fabric.Network) {
	net.InstallGroups(func(sw *fabric.Switch, leaf topo.NodeID) []fabric.Group {
		weights := portWeights(net, sw.Node, leaf)
		ports := make([]int32, 0, len(weights))
		//drill:allow nondeterminism key collection is order-independent; sorted below
		for p := range weights {
			ports = append(ports, p)
		}
		slices.Sort(ports)
		groups := make([]fabric.Group, 0, len(ports))
		for _, p := range ports {
			groups = append(groups, fabric.Group{Ports: []int32{p}, Weight: weights[p]})
		}
		return groups
	})
}

// portWeights sums bottleneck capacities of shortest paths per first-hop
// port and normalizes them to small integers.
func portWeights(net *fabric.Network, src, dst topo.NodeID) map[int32]uint32 {
	caps := map[int32]units.Rate{}
	for _, path := range net.Routes.Paths(src, dst) {
		var bottleneck units.Rate
		for _, cid := range path {
			r := net.Topo.Chan(cid).Rate
			if bottleneck == 0 || r < bottleneck {
				bottleneck = r
			}
		}
		caps[net.PortOfChan(path[0]).Index] += bottleneck
	}
	var g int64
	//drill:allow nondeterminism gcd is commutative and associative
	for _, c := range caps {
		g = gcd64(g, int64(c))
	}
	if g == 0 {
		g = 1
	}
	out := make(map[int32]uint32, len(caps))
	//drill:allow nondeterminism per-key map rebuild is order-independent
	for p, c := range caps {
		w := uint32(int64(c) / g)
		if w == 0 {
			w = 1
		}
		out[p] = w
	}
	return out
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
