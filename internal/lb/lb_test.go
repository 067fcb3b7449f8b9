package lb

import (
	"testing"

	"drill/internal/fabric"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
)

func allBalancers() []fabric.Balancer {
	return []fabric.Balancer{
		ECMP{}, Random{}, RoundRobin{}, NewDRILL(), NewPerFlowDRILL(),
		NewFlowcellDRILL(), NewDRILLAsym(), WCMP{}, NewPresto(), NewCONGA(),
	}
}

func smallClos() *topo.Topology {
	return topo.LeafSpine(topo.LeafSpineConfig{Spines: 3, Leaves: 3, HostsPerLeaf: 3,
		HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
}

func TestAllBalancersCompleteFlows(t *testing.T) {
	for _, bal := range allBalancers() {
		bal := bal
		t.Run(bal.Name(), func(t *testing.T) {
			tp := smallClos()
			s := sim.New(11)
			n := fabric.New(s, tp, fabric.Config{Balancer: bal})
			r := transport.NewRegistry(s, n, transport.Config{})
			var flows []*transport.Sender
			for i := 0; i < 6; i++ {
				src := tp.Hosts[i%9]
				dst := tp.Hosts[(i+4)%9]
				if tp.LeafOf(src) == tp.LeafOf(dst) {
					dst = tp.Hosts[(i+5)%9]
				}
				flows = append(flows, r.StartFlow(src, dst, 80*1460, ""))
			}
			s.Run()
			for i, f := range flows {
				if !f.Done() {
					t.Fatalf("%s: flow %d incomplete (%d bytes)", bal.Name(), i, f.AckedBytes())
				}
			}
		})
	}
}

func TestAllBalancersSurviveFailure(t *testing.T) {
	for _, bal := range allBalancers() {
		bal := bal
		t.Run(bal.Name(), func(t *testing.T) {
			tp := smallClos()
			// Fail one leaf-spine link before building.
			l0 := tp.Leaves[0]
			var s0 topo.NodeID
			for _, nd := range tp.Nodes {
				if nd.Kind == topo.Spine {
					s0 = nd.ID
					break
				}
			}
			tp.FailLink(tp.LinkBetween(l0, s0)[0])
			s := sim.New(13)
			n := fabric.New(s, tp, fabric.Config{Balancer: bal})
			r := transport.NewRegistry(s, n, transport.Config{})
			var flows []*transport.Sender
			for i := 0; i < 6; i++ {
				flows = append(flows, r.StartFlow(tp.Hosts[i%3], tp.Hosts[3+(i%6)], 50*1460, ""))
			}
			s.Run()
			for i, f := range flows {
				if !f.Done() {
					t.Fatalf("%s: flow %d incomplete under failure", bal.Name(), i)
				}
			}
		})
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	tp := smallClos()
	s := sim.New(1)
	n := fabric.New(s, tp, fabric.Config{Balancer: ECMP{}})
	sw := n.Switches[tp.Leaves[0]]
	eng := sw.Engines()[0]
	pkt := &fabric.Packet{Hash: 12345, DstLeafIdx: 1}
	first := ECMP{}.Choose(n, sw, eng, pkt)
	for i := 0; i < 20; i++ {
		if got := (ECMP{}).Choose(n, sw, eng, pkt); got != first {
			t.Fatal("ECMP not deterministic per flow")
		}
	}
	// A different hash should (eventually) map elsewhere.
	diff := false
	for h := uint32(0); h < 64 && !diff; h++ {
		p2 := &fabric.Packet{Hash: h, DstLeafIdx: 1}
		if (ECMP{}).Choose(n, sw, eng, p2) != first {
			diff = true
		}
	}
	if !diff {
		t.Fatal("ECMP maps all hashes to one port")
	}
}

func TestRoundRobinRotates(t *testing.T) {
	tp := smallClos()
	s := sim.New(1)
	n := fabric.New(s, tp, fabric.Config{Balancer: RoundRobin{}})
	sw := n.Switches[tp.Leaves[0]]
	eng := sw.Engines()[0]
	pkt := &fabric.Packet{Hash: 5, DstLeafIdx: 1}
	seen := map[int32]int{}
	for i := 0; i < 9; i++ {
		seen[RoundRobin{}.Choose(n, sw, eng, pkt)]++
	}
	if len(seen) != 3 {
		t.Fatalf("RR used %d ports, want 3", len(seen))
	}
	for p, c := range seen {
		if c != 3 {
			t.Fatalf("RR port %d used %d times, want 3", p, c)
		}
	}
}

func TestDRILLPrefersShortQueue(t *testing.T) {
	tp := smallClos()
	s := sim.New(1)
	d := NewDRILL()
	n := fabric.New(s, tp, fabric.Config{Balancer: d, VisFactor: 0})
	sw := n.Switches[tp.Leaves[0]]
	eng := sw.Engines()[0]
	pkt := &fabric.Packet{Hash: 5, DstLeafIdx: 1}
	g := fabric.GroupForFlow(sw.Groups(1), 5)
	// Load two of the three uplinks heavily via direct visible-byte bumps.
	hot1, hot2 := n.Ports[g.Ports[0]], n.Ports[g.Ports[1]]
	hot1.VisBytes = 1 << 20
	hot2.VisBytes = 1 << 20
	hits := 0
	for i := 0; i < 200; i++ {
		if d.Choose(n, sw, eng, pkt) == g.Ports[2] {
			hits++
		}
	}
	if hits < 150 {
		t.Fatalf("DRILL picked the empty queue only %d/200 times", hits)
	}
}

func TestDRILLAsymGroupsMatchQuiver(t *testing.T) {
	// Fig. 4 scenario: 3 spines, 4 leaves, fail L0-S0, inspect L3's table
	// toward L1: two groups with weights 1 (via S0) and 2 (via S1,S2).
	tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 3, Leaves: 4, HostsPerLeaf: 1,
		HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
	var s0 topo.NodeID
	for _, nd := range tp.Nodes {
		if nd.Kind == topo.Spine {
			s0 = nd.ID
			break
		}
	}
	tp.FailLink(tp.LinkBetween(tp.Leaves[0], s0)[0])
	s := sim.New(1)
	n := fabric.New(s, tp, fabric.Config{Balancer: NewDRILLAsym()})
	sw := n.Switches[tp.Leaves[3]]
	groups := sw.Groups(int32(tp.LeafIndex(tp.Leaves[1])))
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	w := map[int]uint32{}
	for _, g := range groups {
		w[len(g.Ports)] = g.Weight
	}
	if w[1] != 1 || w[2] != 2 {
		t.Fatalf("weights by size = %v, want {1:1, 2:2}", w)
	}
	// The failure perturbs S0's labels for every pair: L2→L3 also splits
	// into {via S0} and {via S1, S2} (S0's downlinks no longer carry
	// L0-sourced flows, so paths through S0 have different label sets).
	g23 := n.Switches[tp.Leaves[2]].Groups(int32(tp.LeafIndex(tp.Leaves[3])))
	if len(g23) != 2 {
		t.Fatalf("L2→L3 groups = %+v, want 2 components", g23)
	}
}

func TestPrestoAssignsRotatingPaths(t *testing.T) {
	tp := smallClos()
	s := sim.New(1)
	p := NewPresto()
	n := fabric.New(s, tp, fabric.Config{Balancer: p})
	host := n.Host(tp.Hosts[0])
	dst := tp.Hosts[3]
	paths := map[string]bool{}
	for cell := 0; cell < 3; cell++ {
		pkt := &fabric.Packet{FlowID: 9, Hash: 42, Kind: fabric.Data, Dst: dst,
			Seq: int64(cell) * 64 * 1024, Len: 1460, Size: 1518}
		// Emulate Host.Send's stamping then the hook.
		pkt.SrcLeaf = host.Leaf
		pkt.DstLeaf = tp.LeafOf(dst)
		pkt.DstLeafIdx = int32(tp.LeafIndex(pkt.DstLeaf))
		p.OnSend(n, host, pkt)
		if pkt.Path == nil {
			t.Fatal("Presto left a data packet unrouted")
		}
		key := ""
		for _, c := range pkt.Path {
			key += string(rune(c + 1))
		}
		paths[key] = true
	}
	if len(paths) != 3 {
		t.Fatalf("3 consecutive cells used %d distinct paths, want 3", len(paths))
	}
	// Same cell → same path (within a flow, no reordering inside a cell).
	mk := func() *fabric.Packet {
		pkt := &fabric.Packet{FlowID: 9, Hash: 42, Kind: fabric.Data, Dst: dst,
			Seq: 100, Len: 1460, Size: 1518}
		pkt.SrcLeaf = host.Leaf
		pkt.DstLeaf = tp.LeafOf(dst)
		pkt.DstLeafIdx = int32(tp.LeafIndex(pkt.DstLeaf))
		p.OnSend(n, host, pkt)
		return pkt
	}
	a, b := mk(), mk()
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			t.Fatal("same cell mapped to different paths")
		}
	}
	// ACKs are not source-routed.
	ack := &fabric.Packet{FlowID: 9, Hash: 42, Kind: fabric.Ack, Dst: tp.Hosts[0]}
	ack.SrcLeaf = tp.LeafOf(dst)
	ack.DstLeaf = host.Leaf
	ack.DstLeafIdx = int32(tp.LeafIndex(ack.DstLeaf))
	p.OnSend(n, n.Host(dst), ack)
	if ack.Path != nil {
		t.Fatal("Presto source-routed an ACK")
	}
}

func TestCONGAFlowletStickinessAndGap(t *testing.T) {
	tp := smallClos()
	s := sim.New(1)
	c := NewCONGA()
	n := fabric.New(s, tp, fabric.Config{Balancer: c})
	sw := n.Switches[tp.Leaves[0]]
	eng := sw.Engines()[0]
	mk := func() *fabric.Packet {
		return &fabric.Packet{FlowID: 4, Hash: 99, Kind: fabric.Data,
			SrcLeaf: tp.Leaves[0], DstLeaf: tp.Leaves[1],
			DstLeafIdx: int32(tp.LeafIndex(tp.Leaves[1])), Size: 1518}
	}
	first := c.Choose(n, sw, eng, mk())
	// Within the gap the flowlet sticks even if we load that port's DRE.
	c.OnTx(n, n.Ports[first], mk(), s.Now())
	for i := 0; i < 10; i++ {
		s.RunUntil(s.Now() + 10*units.Microsecond)
		if got := c.Choose(n, sw, eng, mk()); got != first {
			t.Fatalf("flowlet moved within gap at iter %d", i)
		}
	}
	// After the gap a heavily congested port must be avoided: saturate
	// its DRE, then let one decay instant quantize it.
	s.RunUntil(s.Now() + 2*congaFlowletGap)
	c.age(first, s.Now())
	c.dre[first].bytes += 400 << 14
	s.RunUntil(s.Now() + congaDREInterval)
	if got := c.Choose(n, sw, eng, mk()); got == first {
		t.Fatal("CONGA kept a saturated uplink after the flowlet gap")
	}
}

func TestCONGAFeedbackUpdatesRemoteTable(t *testing.T) {
	tp := smallClos()
	s := sim.New(1)
	c := NewCONGA()
	n := fabric.New(s, tp, fabric.Config{Balancer: c})
	dstLeaf := tp.Leaves[1]
	pkt := &fabric.Packet{Kind: fabric.Data, SrcLeaf: tp.Leaves[0], DstLeaf: dstLeaf,
		DstLeafIdx: int32(tp.LeafIndex(dstLeaf)), LBTag: 1, CE: 6}
	c.OnArrive(n, n.Switches[dstLeaf], pkt)
	// Not yet applied.
	cl := c.leaves[tp.Leaves[0]]
	if cl.congToLeaf[pkt.DstLeafIdx][1] != 0 {
		t.Fatal("feedback applied with no delay")
	}
	s.RunUntil(congaFeedbackDelay + 1)
	if cl.congToLeaf[pkt.DstLeafIdx][1] != 6 {
		t.Fatalf("feedback not applied: %d", cl.congToLeaf[pkt.DstLeafIdx][1])
	}
}

func TestWCMPWeightsProportionalToCapacity(t *testing.T) {
	tp := topo.Heterogeneous(topo.HeterogeneousConfig{Spines: 4, Leaves: 4,
		HostsPerLeaf: 1, ExtraLinks: 2})
	s := sim.New(1)
	n := fabric.New(s, tp, fabric.Config{Balancer: WCMP{}})
	sw := n.Switches[tp.Leaves[0]]
	groups := sw.Groups(int32(tp.LeafIndex(tp.Leaves[2])))
	// Leaf0: 2 links each to S0,S1 and 1 each to S2,S3 → 6 single-port
	// groups. Paths to far leaf L2 (connected 2x to S2,S3): capacity per
	// first-hop link is its bottleneck (all 10G) → equal weights.
	if len(groups) != 6 {
		t.Fatalf("groups = %d, want 6", len(groups))
	}
	for _, g := range groups {
		if len(g.Ports) != 1 {
			t.Fatalf("WCMP group with %d ports", len(g.Ports))
		}
	}
}

// TestBuildEpochAllocs: a WCMP or DRILL+Quiver epoch on a k=8 fat-tree
// allocates per switch, like the default tables, not per (switch, leaf)
// entry or per path: 80 switches × 31 remote leaves would be 2,480
// entries, and an edge switch has 16 paths toward each leaf of another
// pod.
func TestBuildEpochAllocs(t *testing.T) {
	for _, bal := range []fabric.Balancer{WCMP{}, NewDRILLAsym()} {
		tp := topo.FatTree(topo.FatTreeConfig{K: 8})
		n := fabric.New(sim.New(1), tp, fabric.Config{Balancer: bal})
		switches := len(n.SwitchList())
		allocs := testing.AllocsPerRun(5, func() { sinkEpoch = n.BuildEpoch() })
		if limit := 3 * float64(switches); allocs > limit {
			t.Errorf("%s: %.0f allocations per epoch for %d switches, want at most %.0f",
				bal.Name(), allocs, switches, limit)
		}
		t.Logf("%s: %.0f allocations per epoch for %d switches", bal.Name(), allocs, switches)
	}
}

var sinkEpoch *fabric.Epoch

// TestNewAllocs bounds what building a network allocates: nothing per
// port. Ports live in one array, and their events carry the port index
// rather than a callback each, so a k=8 fat-tree under DRILL stays within
// a fixed budget (3,405 allocations when every port took three), and
// growing a leaf–spine by 384 ports adds fewer allocations than ports:
// what it adds comes from the new switches and hosts.
func TestNewAllocs(t *testing.T) {
	build := func(tp *topo.Topology) float64 {
		return testing.AllocsPerRun(3, func() {
			sinkNet = fabric.New(sim.New(1), tp, fabric.Config{Balancer: NewDRILL()})
		})
	}
	if got := build(topo.FatTree(topo.FatTreeConfig{K: 8})); got > 1200 {
		t.Errorf("k=8 fat-tree: %.0f allocations, want at most 1200", got)
	} else {
		t.Logf("k=8 fat-tree: %.0f allocations", got)
	}
	leafSpine := func(leaves int) *topo.Topology {
		return topo.LeafSpine(topo.LeafSpineConfig{Spines: 4, Leaves: leaves, HostsPerLeaf: 20,
			HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
	}
	small, large := leafSpine(8), leafSpine(16)
	ports := 2 * (len(large.Links) - len(small.Links))
	if grew := build(large) - build(small); grew >= float64(ports) {
		t.Errorf("%d more ports cost %.0f more allocations, want fewer than ports", ports, grew)
	} else {
		t.Logf("%d more ports cost %.0f more allocations", ports, grew)
	}
}

var sinkNet *fabric.Network

func TestPerFlowDRILLPins(t *testing.T) {
	tp := smallClos()
	s := sim.New(1)
	p := NewPerFlowDRILL()
	n := fabric.New(s, tp, fabric.Config{Balancer: p})
	sw := n.Switches[tp.Leaves[0]]
	eng := sw.Engines()[0]
	pkt := &fabric.Packet{FlowID: 77, Hash: 3, DstLeafIdx: 1}
	first := p.Choose(n, sw, eng, pkt)
	for i := 0; i < 30; i++ {
		if got := p.Choose(n, sw, eng, pkt); got != first {
			t.Fatal("per-flow DRILL moved a pinned flow")
		}
	}
	// The pin holds across flowcells, even once its port is the busiest.
	n.Ports[first].VisBytes = 1 << 20
	pkt.Seq = 3 * int64(PrestoCellSize)
	if got := p.Choose(n, sw, eng, pkt); got != first {
		t.Fatalf("per-flow DRILL moved a flow between flowcells: %d → %d", first, got)
	}
}

func TestFlowcellDRILLPins(t *testing.T) {
	tp := smallClos()
	s := sim.New(1)
	p := NewFlowcellDRILL()
	n := fabric.New(s, tp, fabric.Config{Balancer: p})
	sw := n.Switches[tp.Leaves[0]]
	eng := sw.Engines()[0]
	pkt := &fabric.Packet{FlowID: 77, Hash: 3, DstLeafIdx: 1}
	first := p.Choose(n, sw, eng, pkt)
	// The rest of the flowcell keeps its port, even once it is the busiest.
	n.Ports[first].VisBytes = 1 << 20
	pkt.Seq = int64(PrestoCellSize) - 1460
	if got := p.Choose(n, sw, eng, pkt); got != first {
		t.Fatalf("flowcell-DRILL moved a packet within its flowcell: %d → %d", first, got)
	}
	// The next flowcell's first packet is a fresh DRILL(2,1) pick: two
	// distinct samples of three ports always include an idle one.
	pkt.Seq = int64(PrestoCellSize)
	next := p.Choose(n, sw, eng, pkt)
	if next == first {
		t.Fatal("flowcell-DRILL kept the busiest port for a new flowcell")
	}
	// A pin whose port went down is picked again, among the ports still up.
	n.FailLink(topo.LinkID(n.Ports[next].Chan/2), true)
	if got := p.Choose(n, sw, eng, pkt); got == next || !n.Ports[got].Up() {
		t.Fatalf("flowcell-DRILL kept its pin on down port %d (picked %d)", next, got)
	}
}
