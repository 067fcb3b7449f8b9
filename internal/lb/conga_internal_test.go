package lb

import (
	"testing"

	"drill/internal/fabric"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

func TestCONGADREDecayAndQuantization(t *testing.T) {
	tp := smallClos()
	s := sim.New(1)
	c := NewCONGA()
	n := fabric.New(s, tp, fabric.Config{Balancer: c})
	// Pick a fabric port (leaf uplink).
	port := n.LeafUplinks(tp.Leaves[0])[0]

	// Saturate: feed the DRE at line rate for several decay periods.
	tau := float64(congaDREInterval) / congaDREAlpha
	lineBytes := float64(port.Rate) / 8 * tau / float64(units.Second)
	c.dre[port.Index] = lineBytes // exactly the rate-time constant product
	c.decay()
	// After one decay: X = lineBytes*(1-α); quantized against lineBytes*8.
	q := c.quant[port.Index]
	if q == 0 || q > 7 {
		t.Fatalf("quantized congestion = %d, want in (0,7]", q)
	}
	// Idle decay drives it back to zero.
	for i := 0; i < 64; i++ {
		c.decay()
	}
	if c.quant[port.Index] != 0 {
		t.Fatalf("DRE did not decay to 0: %d", c.quant[port.Index])
	}
}

func TestCONGAStampsCEOnlyUpward(t *testing.T) {
	tp := smallClos()
	s := sim.New(1)
	c := NewCONGA()
	n := fabric.New(s, tp, fabric.Config{Balancer: c})
	// Host-facing port must not contribute congestion.
	var hostPort *fabric.Port
	for _, p := range n.Ports {
		if tp.Nodes[p.To].Kind == 0 /* Host */ && tp.Nodes[p.From].Kind != 0 {
			hostPort = p
			break
		}
	}
	pkt := &fabric.Packet{Kind: fabric.Data, Size: 1518}
	before := c.dre[hostPort.Index]
	c.OnTx(n, hostPort, pkt)
	if c.dre[hostPort.Index] != before {
		t.Fatal("CONGA fed a host-facing port's DRE")
	}
	// Fabric port does contribute and stamps CE when congested.
	fport := n.LeafUplinks(tp.Leaves[0])[0]
	c.dre[fport.Index] = 1e12 // force saturation
	c.decay()
	c.OnTx(n, fport, pkt)
	if pkt.CE == 0 {
		t.Fatal("CE not stamped on a congested fabric port")
	}
}

func TestCONGANewFlowletAfterGap(t *testing.T) {
	tp := smallClos()
	s := sim.New(2)
	c := NewCONGA()
	n := fabric.New(s, tp, fabric.Config{Balancer: c})
	sw := n.Switches[tp.Leaves[0]]
	eng := sw.Engines()[0]
	mk := func() *fabric.Packet {
		return &fabric.Packet{FlowID: 6, Hash: 77, Kind: fabric.Data,
			SrcLeaf: tp.Leaves[0], DstLeaf: tp.Leaves[1],
			DstLeafIdx: int32(tp.LeafIndex(tp.Leaves[1])), Size: 1518}
	}
	first := c.Choose(n, sw, eng, mk())
	// Saturate the chosen uplink's remote metric via feedback.
	cl := c.leaves[tp.Leaves[0]]
	tag := cl.uplinkIdx[first]
	cl.congToLeaf[tp.LeafIndex(tp.Leaves[1])][tag] = 7
	// Within the gap: sticky despite terrible metric.
	if got := c.Choose(n, sw, eng, mk()); got != first {
		t.Fatal("flowlet moved within gap")
	}
	// After the gap: must avoid the congested uplink.
	s.RunUntil(s.Now() + 2*congaFlowletGap)
	if got := c.Choose(n, sw, eng, mk()); got == first {
		t.Fatal("CONGA ignored remote congestion after flowlet gap")
	}
}

func TestPrestoWeightsInHeterogeneousFabric(t *testing.T) {
	// With doubled links to near spines, Presto's weight-expanded path list
	// must contain proportionally more entries through the doubled links.
	tp := topo.Heterogeneous(topo.HeterogeneousConfig{Spines: 4, Leaves: 4,
		HostsPerLeaf: 2, ExtraLinks: 2})
	s := sim.New(1)
	p := NewPresto()
	_ = fabric.New(s, tp, fabric.Config{Balancer: p})
	si := tp.LeafIndex(tp.Leaves[0])
	di := tp.LeafIndex(tp.Leaves[2])
	list := p.paths[si][di]
	if len(list) == 0 {
		t.Fatal("no Presto paths")
	}
	// All links equal rate here, so expansion is uniform; count distinct
	// first channels: leaf0 has 2+2+1+1 = 6 uplink channels.
	firsts := map[int32]int{}
	for _, path := range list {
		firsts[int32(path[0])]++
	}
	if len(firsts) != 6 {
		t.Fatalf("distinct first hops = %d, want 6", len(firsts))
	}
}
