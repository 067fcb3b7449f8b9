package lb

import (
	"fmt"

	"drill/internal/fabric"
	"drill/internal/quiver"
	"drill/internal/topo"
)

// DRILLAsym is the full DRILL design of §3.4: the control plane decomposes
// each switch's paths into symmetric components via the Quiver, the data
// plane hashes flows to a component (capacity-weighted) and runs DRILL(d,m)
// across the component's next hops. On a symmetric fabric the tables
// collapse to one group per destination and behaviour is identical to the
// plain DRILL balancer; with asymmetry it degrades gracefully toward ECMP.
type DRILLAsym struct {
	DRILL
}

// NewDRILLAsym returns DRILL(2,1) with Quiver-based asymmetry handling.
func NewDRILLAsym() *DRILLAsym { return &DRILLAsym{DRILL{D: 2, M: 1}} }

// Name implements fabric.Balancer.
func (d *DRILLAsym) Name() string { return fmt.Sprintf("DRILL(%d,%d)+quiver", d.D, d.M) }

// BuildTables implements fabric.TableBuilder: it installs one forwarding
// group per symmetric component at every switch.
func (d *DRILLAsym) BuildTables(net *fabric.Network) {
	q := quiver.Build(net.Routes)
	net.InstallQuiver(q)
	net.InstallGroups(func(sw *fabric.Switch, leaf topo.NodeID) []fabric.Group {
		comps := q.Decompose(sw.Node, leaf)
		groups := make([]fabric.Group, 0, len(comps))
		for _, c := range comps {
			ports := make([]int32, 0, len(c.FirstHops))
			for _, cid := range c.FirstHops {
				ports = append(ports, int32(cid))
			}
			groups = append(groups, fabric.Group{Ports: ports, Weight: c.Weight})
		}
		return groups
	})
}
