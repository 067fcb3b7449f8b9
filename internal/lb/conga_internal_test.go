package lb

import (
	"math"
	"testing"

	"drill/internal/fabric"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

// TestCONGADREDecayAndQuantization: aging a port's DRE to time t applies
// each decay instant at or before t once, however the reads fall between
// them: k instants are k discounts, each re-quantized, bit for bit.
func TestCONGADREDecayAndQuantization(t *testing.T) {
	tp := smallClos()
	c := NewCONGA()
	n := fabric.New(sim.New(1), tp, fabric.Config{Balancer: c})
	port := n.LeafUplinks(tp.Leaves[0])[0]
	tau := float64(congaDREInterval) / congaDREAlpha
	lineBytes := float64(port.Rate) / 8 * tau / float64(units.Second)
	d := &c.dre[port.Index]
	d.bytes = 1.3 * lineBytes // above the rate-time constant product
	want, wantQ, instants := d.bytes, uint8(0), int64(0)
	for _, at := range []units.Time{
		congaDREInterval - 1, congaDREInterval, congaDREInterval, // before, on and again on instant 1
		3*congaDREInterval + 7, 3*congaDREInterval + 9, // past instant 3, twice
		80 * congaDREInterval, // long idle
	} {
		c.age(port.Index, at)
		for ; instants < int64(at/congaDREInterval); instants++ {
			want *= 1 - congaDREAlpha
			wantQ = uint8(min(want/lineBytes*8, 7))
		}
		if d.aged != instants || math.Float64bits(d.bytes) != math.Float64bits(want) || d.quant != wantQ {
			t.Fatalf("aged to %v: instants=%d bytes=%v quant=%d, want %d, %v, %d",
				at, d.aged, d.bytes, d.quant, instants, want, wantQ)
		}
		if at == congaDREInterval && d.quant == 0 {
			t.Fatal("a DRE above line rate quantized to 0 after one instant")
		}
	}
	if d.quant != 0 {
		t.Fatalf("an idle DRE did not decay to 0: %d", d.quant)
	}
}

// TestCONGARefusesTransmitAfterLaterDecay: a transmit counted after its
// port's DRE was aged past the transmit's instant would feed the
// accumulator after a decay it preceded, so OnTx panics. A transmit at
// the latest applied instant itself is in order: the instant applies
// first.
func TestCONGARefusesTransmitAfterLaterDecay(t *testing.T) {
	tp := smallClos()
	c := NewCONGA()
	n := fabric.New(sim.New(1), tp, fabric.Config{Balancer: c})
	port := n.LeafUplinks(tp.Leaves[0])[0]
	pkt := &fabric.Packet{Kind: fabric.Data, Size: 1518}
	c.age(port.Index, 2*congaDREInterval)
	c.OnTx(n, port, pkt, 2*congaDREInterval)
	defer func() {
		if recover() == nil {
			t.Fatal("OnTx accepted a transmit before an instant already applied")
		}
	}()
	c.OnTx(n, port, pkt, 2*congaDREInterval-1)
}

// TestCONGASchedulesNothingIdle: CONGA's DREs decay when read, so a CONGA
// network without traffic dispatches no event.
func TestCONGASchedulesNothingIdle(t *testing.T) {
	s := sim.New(1)
	fabric.New(s, smallClos(), fabric.Config{Balancer: NewCONGA()})
	s.RunUntil(units.Millisecond)
	if st := s.Sched(); s.Executed != 0 || st.DispatchList+st.DispatchHeap != 0 {
		t.Fatalf("an idle CONGA network dispatched %d events (%d counted)",
			st.DispatchList+st.DispatchHeap, s.Executed)
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
	c.OnTx(n, hostPort, pkt, 0)
	if c.dre[hostPort.Index].bytes != 0 {
		t.Fatal("CONGA fed a host-facing port's DRE")
	}
	// Fabric port does contribute and stamps CE when congested.
	fport := n.LeafUplinks(tp.Leaves[0])[0]
	c.dre[fport.Index].bytes = 1e12 // force saturation
	c.OnTx(n, fport, pkt, congaDREInterval)
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
