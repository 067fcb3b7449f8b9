package fabric

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"drill/internal/metrics"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

// sink records delivered packets.
type sink struct {
	got []*Packet
}

func (s *sink) HandlePacket(h *Host, pkt *Packet) { s.got = append(s.got, pkt) }

// settled returns a port's visibility counters as a reader acts on them:
// after settling every update and departure its scheduler has passed. The
// raw fields can trail these until the next read.
func settled(p *Port) (pkts int32, bytes int64, skip int32) {
	p.Settle()
	return p.VisPkts, p.VisBytes, p.visSkip
}

// randomLB sprays uniformly; defined locally to keep fabric free of lb deps.
type randomLB struct{}

func (randomLB) Name() string { return "test-random" }
func (randomLB) Choose(n *Network, sw *Switch, eng *Engine, pkt *Packet) int32 {
	g := GroupForFlow(sw.Groups(pkt.DstLeafIdx), pkt.Hash)
	return g.Ports[eng.Rng.Intn(len(g.Ports))]
}

// fixedLB always uses the first port, to create hotspots deterministically.
type fixedLB struct{}

func (fixedLB) Name() string { return "test-fixed" }
func (fixedLB) Choose(n *Network, sw *Switch, eng *Engine, pkt *Packet) int32 {
	g := GroupForFlow(sw.Groups(pkt.DstLeafIdx), pkt.Hash)
	return g.Ports[0]
}

func newNet(t *testing.T, cfg Config) (*sim.Sim, *Network, *topo.Topology) {
	t.Helper()
	tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 2, Leaves: 2, HostsPerLeaf: 2,
		HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
	s := sim.New(1)
	if cfg.Balancer == nil {
		cfg.Balancer = randomLB{}
	}
	n := New(s, tp, cfg)
	return s, n, tp
}

// TestSendToNonHostPanics: Send resolves a destination's leaf from a
// per-node table, and a destination that is not a host panics, naming it.
func TestSendToNonHostPanics(t *testing.T) {
	_, n, tp := newNet(t, Config{})
	leaf := tp.Leaves[1]
	defer func() {
		want := fmt.Sprintf("node %d is not a host", leaf)
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("Send to leaf %d: panic %q, want one containing %q", leaf, msg, want)
		}
	}()
	n.Host(tp.Hosts[0]).Send(&Packet{FlowID: 1, Dst: leaf, Size: 1518})
}

func TestEndToEndDelivery(t *testing.T) {
	s, n, tp := newNet(t, Config{})
	src := n.Host(tp.Hosts[0])
	dst := tp.Hosts[2] // under the other leaf
	rx := &sink{}
	n.Host(dst).Handler = rx

	for i := 0; i < 10; i++ {
		pkt := &Packet{FlowID: 1, Hash: 77, Dst: dst, Size: 1518, Seq: int64(i)}
		src.Send(pkt)
	}
	s.Run()
	if len(rx.got) != 10 {
		t.Fatalf("delivered %d packets, want 10", len(rx.got))
	}
	if n.Delivered != 10 {
		t.Fatalf("Delivered = %d", n.Delivered)
	}
	for _, p := range rx.got {
		if p.Hops != 3 {
			t.Errorf("packet crossed %d switches, want 3 (leaf-spine-leaf)", p.Hops)
		}
		if p.SrcLeaf == p.DstLeaf {
			t.Error("src and dst leaf should differ")
		}
	}
}

func TestSameLeafDelivery(t *testing.T) {
	s, n, tp := newNet(t, Config{})
	src := n.Host(tp.Hosts[0])
	dst := tp.Hosts[1] // same leaf
	rx := &sink{}
	n.Host(dst).Handler = rx
	src.Send(&Packet{FlowID: 2, Hash: 5, Dst: dst, Size: 1000})
	s.Run()
	if len(rx.got) != 1 {
		t.Fatalf("delivered %d, want 1", len(rx.got))
	}
	if rx.got[0].Hops != 1 {
		t.Errorf("hops = %d, want 1 (leaf only)", rx.got[0].Hops)
	}
}

func TestFIFOOnSharedPath(t *testing.T) {
	// A single flow through fixedLB takes one path; delivery must be FIFO.
	s, n, tp := newNet(t, Config{Balancer: fixedLB{}})
	src := n.Host(tp.Hosts[0])
	dst := tp.Hosts[2]
	rx := &sink{}
	n.Host(dst).Handler = rx
	for i := 0; i < 50; i++ {
		src.Send(&Packet{FlowID: 3, Hash: 9, Dst: dst, Size: 1518, Seq: int64(i)})
	}
	s.Run()
	if len(rx.got) != 50 {
		t.Fatalf("delivered %d, want 50", len(rx.got))
	}
	for i, p := range rx.got {
		if p.Seq != int64(i) {
			t.Fatalf("reordered on a single path: pos %d has seq %d", i, p.Seq)
		}
	}
}

func TestLatencyMatchesStoreAndForward(t *testing.T) {
	s, n, tp := newNet(t, Config{})
	src := n.Host(tp.Hosts[0])
	dst := tp.Hosts[2]
	rx := &sink{}
	n.Host(dst).Handler = rx
	var sentAt units.Time
	src.Send(&Packet{FlowID: 4, Hash: 1, Dst: dst, Size: 1518})
	sentAt = s.Now()
	s.Run()
	// Path: host--10G-->leaf--40G-->spine--40G-->leaf--10G-->host.
	want := units.TxTime(1518, 10*units.Gbps)*2 + units.TxTime(1518, 40*units.Gbps)*2 + 4*topo.DefaultProp
	got := s.Now() - sentAt
	if got != want {
		t.Fatalf("e2e latency = %v, want %v", got, want)
	}
}

func TestQueueCapDrops(t *testing.T) {
	s, n, tp := newNet(t, Config{Balancer: fixedLB{}, QueueCap: 4})
	src1 := n.Host(tp.Hosts[0])
	src2 := n.Host(tp.Hosts[1])
	dst := tp.Hosts[2]
	rx := &sink{}
	n.Host(dst).Handler = rx
	// Two 10G senders converge on one 10G receiver link: the leaf→host port
	// (hop 3, cap 4) must overflow.
	for i := 0; i < 50; i++ {
		src1.Send(&Packet{FlowID: 5, Hash: 3, Dst: dst, Size: 1518})
		src2.Send(&Packet{FlowID: 6, Hash: 4, Dst: dst, Size: 1518})
	}
	s.Run()
	if n.Hops.Drops[metrics.Hop3] == 0 {
		t.Fatalf("expected hop3 drops, got none (drops=%v)", n.Hops.Drops)
	}
	if got := len(rx.got) + int(n.Hops.TotalDrops()); got != 100 {
		t.Fatalf("conservation violated: delivered+dropped = %d, want 100", got)
	}
}

func TestVisibilityLagsAndReconciles(t *testing.T) {
	s, n, tp := newNet(t, Config{Balancer: fixedLB{}})
	src := n.Host(tp.Hosts[0])
	dst := tp.Hosts[2]
	n.Host(dst).Handler = &sink{}
	for i := 0; i < 20; i++ {
		src.Send(&Packet{FlowID: 6, Hash: 3, Dst: dst, Size: 1518})
	}
	// Sample invariants while the burst drains.
	bad := 0
	for i := 0; i < 2000; i++ {
		s.RunUntil(s.Now() + 100)
		for _, p := range n.Ports {
			if vp, vb, _ := settled(p); vp > p.QueueLen() || vp < 0 || vb < 0 {
				bad++
			}
		}
		if s.Pending() == 0 {
			break
		}
	}
	if bad != 0 {
		t.Fatalf("visibility invariant violated %d times", bad)
	}
	// Fully drained: all counters must be zero, with no update left parked.
	s.Run()
	for _, p := range n.Ports {
		if vp, vb, skip := settled(p); p.QueueLen() != 0 || p.QueueBytes() != 0 || vp != 0 || vb != 0 || skip != 0 || !p.visRing.empty() {
			t.Fatalf("port %d not drained: q=%d/%d vis=%d/%d skip=%d parked=%d",
				p.Index, p.QueueLen(), p.QueueBytes(), vp, vb, skip, p.visRing.len())
		}
	}
}

func TestFailLinkDropsAndReroutes(t *testing.T) {
	s, n, tp := newNet(t, Config{Balancer: randomLB{}, RouteDelay: 10 * units.Microsecond})
	l0 := tp.Leaves[0]
	src := n.Host(tp.Hosts[0])
	dst := tp.Hosts[2]
	rx := &sink{}
	n.Host(dst).Handler = rx

	// Find a leaf0-spine link and fail it at t=5us while traffic flows.
	var spine topo.NodeID = -1
	for _, nd := range tp.Nodes {
		if nd.Kind == topo.Spine {
			spine = nd.ID
			break
		}
	}
	link := tp.LinkBetween(l0, spine)[0]
	for i := 0; i < 200; i++ {
		i := i
		s.At(units.Time(i)*2*units.Microsecond, func() {
			src.Send(&Packet{FlowID: 7, Hash: uint32(i), Dst: dst, Size: 1518, Seq: int64(i)})
		})
	}
	s.At(5*units.Microsecond, func() { n.FailLink(link, false) })
	s.Run()

	if got := len(n.LeafUplinks(l0)); got != 1 {
		t.Fatalf("leaf0 uplinks after failure = %d, want 1", got)
	}
	// After reconvergence every packet goes via the surviving spine; all
	// packets sent well after the failure must be delivered.
	if len(rx.got) < 150 {
		t.Fatalf("only %d/200 delivered after failure+reroute", len(rx.got))
	}
	if got := len(rx.got) + int(n.Hops.TotalDrops()); got != 200 {
		t.Fatalf("conservation violated: %d", got)
	}
}

// TestSourceRoutesFollowedHopByHop: forward takes a packet's Path one
// channel per hop, and falls back to the tables when the next channel
// leaves another switch or its link is down. fixedLB always picks the
// lower-numbered spine, S0, so a packet that crosses S1 got there by its
// route.
func TestSourceRoutesFollowedHopByHop(t *testing.T) {
	const N = 5
	type hop [2]string // a channel, by its end nodes' names
	for _, tc := range []struct {
		name       string
		route      []hop
		failL0S1   bool  // fail L0–S1 first, reconverging at once
		carried    []hop // channels that must carry all N packets
		idle       []hop // channels that must carry none
		pathIdxEnd int32 // PathIdx on delivery
	}{
		{
			name:  "route through the spine the balancer would not pick",
			route: []hop{{"L0", "S1"}, {"S1", "L1"}}, pathIdxEnd: 2,
			carried: []hop{{"L0", "S1"}, {"S1", "L1"}},
			idle:    []hop{{"L0", "S0"}, {"S0", "L1"}},
		},
		{
			name:  "next channel starts at another switch",
			route: []hop{{"S1", "L1"}}, pathIdxEnd: 0,
			carried: []hop{{"L0", "S0"}, {"S0", "L1"}},
			idle:    []hop{{"L0", "S1"}, {"S1", "L1"}},
		},
		{
			// The broken hop still counts as taken: PathIdx passes it.
			name:  "next channel's link is down",
			route: []hop{{"L0", "S1"}, {"S1", "L1"}}, pathIdxEnd: 1, failL0S1: true,
			carried: []hop{{"L0", "S0"}, {"S0", "L1"}},
			idle:    []hop{{"L0", "S1"}, {"S1", "L1"}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, n, tp := newNet(t, Config{Balancer: fixedLB{}})
			node := map[string]topo.NodeID{}
			for _, nd := range tp.Nodes {
				node[nd.Name] = nd.ID
			}
			port := func(h hop) *Port {
				for _, c := range tp.OutAll(node[h[0]]) {
					if tp.Chan(c).To == node[h[1]] {
						return n.Ports[c]
					}
				}
				t.Fatalf("no channel %s→%s", h[0], h[1])
				return nil
			}
			var route []topo.ChanID
			for _, h := range tc.route {
				route = append(route, port(h).Chan)
			}
			if tc.failL0S1 {
				n.FailLink(tp.LinkBetween(node["L0"], node["S1"])[0], true)
			}
			dst := tp.Hosts[2] // under L1
			rx := &sink{}
			n.Host(dst).Handler = rx
			for i := 0; i < N; i++ {
				n.Host(tp.Hosts[0]).Send(&Packet{FlowID: 1, Hash: 7, Dst: dst, Size: 1518, Seq: int64(i), Path: route})
			}
			s.Run()

			if len(rx.got) != N || n.Hops.TotalDrops() != 0 {
				t.Fatalf("delivered %d, dropped %d; want all %d delivered", len(rx.got), n.Hops.TotalDrops(), N)
			}
			for _, h := range tc.carried {
				if got := port(h).EnqPackets; got != N {
					t.Errorf("%s→%s enqueued %d packets, want %d", h[0], h[1], got, N)
				}
			}
			for _, h := range tc.idle {
				if got := port(h).EnqPackets; got != 0 {
					t.Errorf("%s→%s enqueued %d packets, want 0", h[0], h[1], got)
				}
			}
			for _, p := range rx.got {
				if p.PathIdx != tc.pathIdxEnd {
					t.Errorf("seq %d delivered at PathIdx %d, want %d", p.Seq, p.PathIdx, tc.pathIdxEnd)
				}
			}
		})
	}
}

func TestDownlinksTo(t *testing.T) {
	_, n, tp := newNet(t, Config{})
	for _, leaf := range tp.Leaves {
		dls := n.DownlinksTo(leaf)
		if len(dls) != 2 {
			t.Fatalf("downlinks to %v = %d, want 2 (one per spine)", leaf, len(dls))
		}
		for _, p := range dls {
			if p.To != leaf {
				t.Fatalf("downlink port to %v, want %v", p.To, leaf)
			}
			if tp.Nodes[p.From].Kind != topo.Spine {
				t.Fatalf("downlink from %v, want spine", tp.Nodes[p.From].Kind)
			}
		}
	}
}

func TestEngineSharding(t *testing.T) {
	tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 4, Leaves: 2, HostsPerLeaf: 8})
	s := sim.New(1)
	n := New(s, tp, Config{Balancer: randomLB{}, Engines: 4})
	sw := n.Switches[tp.Leaves[0]]
	if len(sw.Engines()) != 4 {
		t.Fatalf("engines = %d", len(sw.Engines()))
	}
	seen := map[int]bool{}
	for _, cid := range tp.OutAll(tp.Leaves[0]) {
		e := n.engineFor(sw, cid^1)
		seen[e.Index] = true
	}
	if len(seen) != 4 {
		t.Fatalf("input sharding reached %d engines, want 4", len(seen))
	}
}

func TestGroupForFlowWeighted(t *testing.T) {
	groups := []Group{
		{ID: 0, Ports: []int32{0}, Weight: 1},
		{ID: 1, Ports: []int32{1, 2}, Weight: 2},
	}
	counts := map[int32]int{}
	for h := uint32(0); h < 30000; h++ {
		g := GroupForFlow(groups, h)
		counts[g.ID]++
	}
	frac := float64(counts[1]) / 30000
	if frac < 0.6 || frac > 0.72 {
		t.Fatalf("weighted group share = %v, want ~2/3", frac)
	}
}

func TestHopClassification(t *testing.T) {
	tp := topo.VL2(topo.VL2Config{ToRs: 2, Aggs: 2, Ints: 2, HostsPerToR: 1})
	s := sim.New(1)
	n := New(s, tp, Config{Balancer: randomLB{}})
	classes := map[metrics.HopClass]int{}
	for _, p := range n.Ports {
		classes[p.Hop]++
	}
	for _, c := range []metrics.HopClass{metrics.HostUp, metrics.Hop1, metrics.Up2,
		metrics.Down2, metrics.Hop2, metrics.Hop3} {
		if classes[c] == 0 {
			t.Errorf("no ports classified %v", c)
		}
	}
}

// TestPortIndexIsChannel holds the layout every port lookup relies on:
// the fabric builds one port per directed channel in channel order, so
// Ports is indexed by ChanID on both engines — including parallel links
// and three-tier fabrics.
func TestPortIndexIsChannel(t *testing.T) {
	for _, tc := range []struct {
		name string
		tp   func() *topo.Topology
	}{
		{"leaf-spine", func() *topo.Topology {
			return topo.LeafSpine(topo.LeafSpineConfig{Spines: 3, Leaves: 4, HostsPerLeaf: 2})
		}},
		{"fat-tree", func() *topo.Topology { return topo.FatTree(topo.FatTreeConfig{K: 4}) }},
		{"vl2", func() *topo.Topology {
			return topo.VL2(topo.VL2Config{ToRs: 4, Aggs: 4, Ints: 2, HostsPerToR: 2})
		}},
		{"heterogeneous", func() *topo.Topology {
			return topo.Heterogeneous(topo.HeterogeneousConfig{Spines: 4, Leaves: 4, HostsPerLeaf: 2, ExtraLinks: 2})
		}},
	} {
		for _, shards := range []int{0, 2} {
			tp := tc.tp()
			cfg := Config{Balancer: randomLB{}}
			var n *Network
			if shards == 0 {
				n = New(sim.New(1), tp, cfg)
			} else {
				assign, nsh := tp.Partition(shards)
				sims := make([]*sim.Sim, nsh)
				for i := range sims {
					sims[i] = sim.New(1)
				}
				n = NewSharded(sim.New(1), sims, assign, tp, cfg)
			}
			if len(n.Ports) != 2*len(tp.Links) {
				t.Fatalf("%s shards=%d: %d ports for %d channels", tc.name, shards, len(n.Ports), 2*len(tp.Links))
			}
			for i, p := range n.Ports {
				if c := tp.Chan(topo.ChanID(i)); p.Index != int32(i) || p.Chan != c.ID || p.From != c.From || p.To != c.To {
					t.Fatalf("%s shards=%d: Ports[%d] is port %d on channel %d (%d→%d), want channel %d (%d→%d)",
						tc.name, shards, i, p.Index, p.Chan, p.From, p.To, c.ID, c.From, c.To)
				}
			}
			for _, sw := range n.SwitchList() {
				for k, c := range tp.OutAll(sw.Node) {
					if sw.OutPorts[k] != int32(c) {
						t.Fatalf("%s shards=%d: switch %d output %d is port %d, want channel %d",
							tc.name, shards, sw.Node, k, sw.OutPorts[k], c)
					}
				}
			}
			for _, h := range tp.Hosts {
				if nic := n.Host(h).NIC; nic != n.Ports[tp.OutAll(h)[0]] {
					t.Fatalf("%s shards=%d: host %d NIC is port %d, want channel %d", tc.name, shards, h, nic.Index, tp.OutAll(h)[0])
				}
			}
		}
	}
}

// TestConfigRejectsOutOfRange holds both constructors to one rule: a value
// no network can run with panics at construction, naming the field and the
// value, instead of surfacing mid-run (a division by zero at the first
// forwarding decision, a reconvergence timer in the past, queues that
// never drop). Zero still means the default.
func TestConfigRejectsOutOfRange(t *testing.T) {
	build := func(shards int, cfg Config) *Network {
		tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 2, Leaves: 2, HostsPerLeaf: 2})
		if shards == 0 {
			return New(sim.New(1), tp, cfg)
		}
		assign, nsh := tp.Partition(shards)
		sims := make([]*sim.Sim, nsh)
		for i := range sims {
			sims[i] = sim.New(1)
		}
		return NewSharded(sim.New(1), sims, assign, tp, cfg)
	}
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, "Balancer"},
		{Config{Balancer: randomLB{}, Engines: -1}, "Engines -1"},
		{Config{Balancer: randomLB{}, QueueCap: -1}, "QueueCap -1"},
		{Config{Balancer: randomLB{}, VisFactor: -1}, "VisFactor -1"},
		{Config{Balancer: randomLB{}, VisFactor: math.NaN()}, "VisFactor NaN"},
		{Config{Balancer: randomLB{}, VisFactor: math.Inf(1)}, "VisFactor +Inf"},
		{Config{Balancer: randomLB{}, RouteDelay: -units.Microsecond}, "RouteDelay -1us"},
	} {
		for _, shards := range []int{0, 2} {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, tc.want) {
						t.Errorf("shards=%d %+v: panic %q, want one naming %q", shards, tc.cfg, msg, tc.want)
					}
				}()
				build(shards, tc.cfg)
			}()
		}
	}
	for _, shards := range []int{0, 2} {
		n := build(shards, Config{Balancer: randomLB{}})
		if c := n.Cfg; c.Engines != 1 || c.QueueCap != 256 || c.VisFactor != 0.05 || c.RouteDelay != units.Millisecond {
			t.Errorf("shards=%d: zero config resolved to %+v, want the defaults", shards, c)
		}
		for _, p := range n.Ports {
			if p.Cap <= 0 {
				t.Fatalf("shards=%d: port %d has cap %d", shards, p.Index, p.Cap)
			}
		}
	}
}
