package fabric

import (
	"fmt"
	"slices"
	"testing"

	"drill/internal/metrics"
	"drill/internal/quiver"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

// quiverLB is a minimal TableBuilder that decomposes via the Quiver, so
// epoch capture of InstallQuiver can be tested without importing lb.
type quiverLB struct{ randomLB }

func (quiverLB) Name() string { return "test-quiver" }
func (quiverLB) BuildTables(net *Network) {
	net.BuildDefaultTables()
	net.InstallQuiver(quiver.Build(net.Routes))
}

// uplink returns the link between leaf li and spine si of the test fabric.
func uplink(t *testing.T, tp *topo.Topology, li, si int) topo.LinkID {
	t.Helper()
	var leaves, spines []topo.NodeID
	for _, nd := range tp.Nodes {
		switch nd.Kind {
		case topo.Leaf:
			leaves = append(leaves, nd.ID)
		case topo.Spine:
			spines = append(spines, nd.ID)
		}
	}
	links := tp.LinkBetween(leaves[li], spines[si])
	if len(links) == 0 {
		t.Fatalf("no link between leaf %d and spine %d", li, si)
	}
	return links[0]
}

func TestRestoreLinkRecovers(t *testing.T) {
	s, n, tp := newNet(t, Config{})
	l := uplink(t, tp, 0, 0)
	leaf0 := tp.Leaves[0]
	leaf1 := tp.Leaves[1]

	if hops := n.Routes.NextHops(leaf0, leaf1); len(hops) != 2 {
		t.Fatalf("healthy fabric has %d next hops leaf0→leaf1, want 2", len(hops))
	}
	seq0 := n.EpochSeq()
	if seq0 != 1 {
		t.Fatalf("construction epoch seq = %d, want 1", seq0)
	}

	n.FailLink(l, true)
	for dir := int32(0); dir < 2; dir++ {
		if p := n.Ports[2*int32(l)+dir]; p.Up() {
			t.Fatalf("direction %d still up after FailLink", dir)
		}
	}
	if hops := n.Routes.NextHops(leaf0, leaf1); len(hops) != 1 {
		t.Fatalf("failed fabric has %d next hops leaf0→leaf1, want 1", len(hops))
	}
	if n.EpochSeq() != seq0+1 {
		t.Fatalf("epoch seq = %d after failure, want %d", n.EpochSeq(), seq0+1)
	}

	n.RestoreLink(l, true)
	for dir := int32(0); dir < 2; dir++ {
		if p := n.Ports[2*int32(l)+dir]; !p.Up() {
			t.Fatalf("direction %d still down after RestoreLink", dir)
		}
	}
	if hops := n.Routes.NextHops(leaf0, leaf1); len(hops) != 2 {
		t.Fatalf("restored fabric has %d next hops leaf0→leaf1, want 2", len(hops))
	}
	if n.EpochSeq() != seq0+2 {
		t.Fatalf("epoch seq = %d after restore, want %d", n.EpochSeq(), seq0+2)
	}

	// Traffic flows over the restored fabric — including the revived link.
	src := n.Host(tp.Hosts[0])
	dst := tp.Hosts[2]
	n.Host(dst).Handler = &sink{}
	for i := 0; i < 50; i++ {
		src.Send(&Packet{FlowID: uint64(i), Hash: uint32(i * 2654435761), Dst: dst, Size: 1518, Seq: int64(i)})
	}
	s.Run()
	if n.Delivered != 50 {
		t.Fatalf("delivered %d packets after restore, want 50", n.Delivered)
	}
}

func TestRestoreUpLinkAndFailDownLinkAreNoops(t *testing.T) {
	_, n, tp := newNet(t, Config{})
	l := uplink(t, tp, 0, 0)

	seq := n.EpochSeq()
	n.RestoreLink(l, true) // already up
	if n.EpochSeq() != seq {
		t.Fatalf("restoring an up link reconverged (seq %d → %d)", seq, n.EpochSeq())
	}

	n.FailLink(l, true)
	seq = n.EpochSeq()
	drops := n.Hops.TotalDrops()
	n.FailLink(l, true) // already down: must not drain or reconverge again
	if n.EpochSeq() != seq {
		t.Fatalf("failing a down link reconverged (seq %d → %d)", seq, n.EpochSeq())
	}
	if got := n.Hops.TotalDrops(); got != drops {
		t.Fatalf("failing a down link changed drop count %d → %d", drops, got)
	}
	// And the delayed variant must not leave a reconvergence pending.
	n.FailLink(l, false)
	if n.reconvergePending {
		t.Fatal("failing a down link scheduled a reconvergence")
	}
}

func TestReconvergenceCoalesces(t *testing.T) {
	s, n, tp := newNet(t, Config{RouteDelay: 100 * units.Microsecond})
	l00 := uplink(t, tp, 0, 0)
	l10 := uplink(t, tp, 1, 0)

	// Two failures 40µs apart — inside one 100µs RouteDelay window — and a
	// restore of the first while reconvergence is still pending: one epoch
	// swap covers all three.
	s.AtGlobal(10*units.Microsecond, func() { n.FailLink(l00, false) })
	s.AtGlobal(50*units.Microsecond, func() { n.FailLink(l10, false) })
	s.AtGlobal(80*units.Microsecond, func() { n.RestoreLink(l00, false) })
	s.Run()

	if n.EpochSeq() != 2 {
		t.Fatalf("epoch seq = %d, want 2 (construction + one coalesced reconvergence)", n.EpochSeq())
	}
	e := n.Epoch()
	if int64(e.BuiltAt) != int64(110*units.Microsecond) {
		t.Fatalf("coalesced epoch built at %v, want 110µs (first failure + RouteDelay)", e.BuiltAt)
	}
	// The single epoch reflects the net state: l00 restored, l10 down.
	if !e.LinkUp[l00] || e.LinkUp[l10] {
		t.Fatalf("epoch link vector up[l00]=%v up[l10]=%v, want true/false", e.LinkUp[l00], e.LinkUp[l10])
	}
	// With leaf1's spine0 uplink down, the leaves reach each other only via
	// spine1 — one next hop each way, even though leaf0's own links are live.
	leaf1 := tp.Leaves[1]
	if hops := n.Routes.NextHops(tp.Leaves[0], leaf1); len(hops) != 1 {
		t.Fatalf("leaf0 has %d next hops after the window, want 1 (only spine1 reaches leaf1)", len(hops))
	}
	if hops := n.Routes.NextHops(leaf1, tp.Leaves[0]); len(hops) != 1 {
		t.Fatalf("leaf1 has %d next hops after the window, want 1 (its spine0 uplink is down)", len(hops))
	}
}

func TestQuiverRecomputedAcrossFlap(t *testing.T) {
	_, n, tp := newNet(t, Config{Balancer: quiverLB{}})
	q0 := n.Quiver()
	if q0 == nil {
		t.Fatal("no Quiver installed at construction")
	}
	l := uplink(t, tp, 0, 0)
	n.FailLink(l, true)
	q1 := n.Quiver()
	if q1 == nil || q1 == q0 {
		t.Fatal("failure reconvergence did not recompute the Quiver")
	}
	n.RestoreLink(l, true)
	q2 := n.Quiver()
	if q2 == nil || q2 == q1 {
		t.Fatal("restore reconvergence did not recompute the Quiver")
	}
	if e := n.Epoch(); e.Quiver != q2 {
		t.Fatal("applied epoch and network disagree on the Quiver")
	}
}

func TestApplyEpochAtSwapsAtomically(t *testing.T) {
	s, n, tp := newNet(t, Config{})
	l := uplink(t, tp, 0, 0)

	// Snapshot the healthy config, degrade the fabric, then schedule a
	// rollback onto the snapshot: the epoch carries the full link vector,
	// so applying it revives the link without a FailLink/RestoreLink pair.
	healthy := n.BuildEpoch()
	if n.EpochSeq() != 1 {
		t.Fatalf("BuildEpoch mutated the live network (seq %d)", n.EpochSeq())
	}
	n.FailLink(l, true)
	if p := n.Ports[2*int32(l)]; p.Up() {
		t.Fatal("link still up after FailLink")
	}
	s.AtGlobal(25*units.Microsecond, func() { n.ApplyEpoch(healthy) })
	s.Run()
	if n.Epoch() != healthy {
		t.Fatal("scheduled epoch was not applied")
	}
	if p := n.Ports[2*int32(l)]; !p.Up() {
		t.Fatal("applying the healthy epoch did not revive the link")
	}
	if !n.Topo.Links[l].Up {
		t.Fatal("topology link state not synced to the applied epoch")
	}
	if hops := n.Routes.NextHops(tp.Leaves[0], tp.Leaves[1]); len(hops) != 2 {
		t.Fatalf("rolled-back fabric has %d next hops, want 2", len(hops))
	}
}

func TestSentCounterClosesConservation(t *testing.T) {
	s, n, tp := newNet(t, Config{})
	src := n.Host(tp.Hosts[0])
	dst := tp.Hosts[2]
	n.Host(dst).Handler = &sink{}
	l := uplink(t, tp, 0, 0)
	s.AtGlobal(5*units.Microsecond, func() { n.FailLink(l, false) })
	s.AtGlobal(40*units.Microsecond, func() { n.RestoreLink(l, false) })
	for i := 0; i < 200; i++ {
		src.Send(&Packet{FlowID: uint64(i), Hash: uint32(i * 2654435761), Dst: dst, Size: 1518, Seq: int64(i)})
	}
	s.Run()
	if n.Sent != 200 {
		t.Fatalf("Sent = %d, want 200", n.Sent)
	}
	got := n.Delivered + n.Hops.TotalDrops() + n.QueuedPackets() + n.InFlightPackets()
	if got != n.Sent {
		t.Fatalf("conservation violated through the flap: sent=%d, delivered+drops+queued+inflight=%d", n.Sent, got)
	}
	if n.Hops.TotalDrops() == 0 {
		t.Fatal("flap produced no drops; the cycle did not bite")
	}
}

// lowestPorts returns the switch's three lowest output ports, in order.
func lowestPorts(sw *Switch) (a, b, c int32) {
	out := slices.Clone(sw.OutPorts)
	slices.Sort(out)
	return out[0], out[1], out[2]
}

// chans converts ports to the channel IDs InstallGroups' add takes.
func chans(ports ...int32) []topo.ChanID {
	out := make([]topo.ChanID, len(ports))
	for i, p := range ports {
		out[i] = topo.ChanID(p)
	}
	return out
}

// layoutLB is a TableBuilder whose groups exercise InstallGroups' table
// format: unsorted port sets, one set repeated toward two leaves, a
// single-port entry, and no groups toward leaf 0. It checks that add
// leaves the caller's slice as it was.
type layoutLB struct{ randomLB }

func (layoutLB) BuildTables(net *Network) {
	net.InstallGroups(func(sw *Switch, leaf topo.NodeID, add func([]topo.ChanID, uint32)) {
		a, b, c := lowestPorts(sw)
		addCopy := func(ports []topo.ChanID, weight uint32) {
			kept := slices.Clone(ports)
			add(ports, weight)
			if !slices.Equal(ports, kept) {
				panic(fmt.Sprintf("add changed its argument %v to %v", kept, ports))
			}
		}
		switch net.Topo.LeafIndex(leaf) {
		case 0:
		case 1:
			addCopy(chans(c, a), 2)
			addCopy(chans(b), 1)
		case 2:
			addCopy(chans(b), 3)
		default:
			addCopy(chans(c, b, a), 1)
			addCopy(chans(a, c), 4)
		}
	})
}

// newLayoutNet builds the 4-leaf, 2-spine fabric under layoutLB.
func newLayoutNet(engines int) (*Network, *topo.Topology) {
	tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 2, Leaves: 4, HostsPerLeaf: 1,
		HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
	return New(sim.New(1), tp, Config{Balancer: layoutLB{}, Engines: engines}), tp
}

// TestInstallGroupsLayout: InstallGroups sorts every port set, gives equal
// sets one ID and one stored copy, distinct sets dense IDs in first-seen
// order (leaf by leaf, group by group), leaves an unreachable leaf without
// groups, puts a single-port entry's port itself in the flat table, and
// sizes every engine's per-group state to the distinct sets.
func TestInstallGroupsLayout(t *testing.T) {
	n, tp := newLayoutNet(2)

	for _, sw := range n.SwitchList() {
		ids := map[string]int32{}    // port set → the ID it first got
		stored := map[int32]*int32{} // ID → its set's stored copy
		for li, leaf := range tp.Leaves {
			groups := sw.Groups(int32(li))
			if li == 0 || leaf == sw.Node {
				if len(groups) != 0 || sw.fwd[li] != noRoute {
					t.Errorf("switch %d, leaf %d: %d groups, entry %d; want none, noRoute", sw.Node, li, len(groups), sw.fwd[li])
				}
				continue
			}
			want := viaBalancer
			if len(groups) == 1 && len(groups[0].Ports) == 1 {
				want = groups[0].Ports[0]
			}
			if sw.fwd[li] != want {
				t.Errorf("switch %d, leaf %d: flat entry %d, want %d", sw.Node, li, sw.fwd[li], want)
			}
			for _, g := range groups {
				if !slices.IsSorted(g.Ports) {
					t.Errorf("switch %d, leaf %d: ports %v not sorted", sw.Node, li, g.Ports)
				}
				key := fmt.Sprint(g.Ports)
				id, seen := ids[key]
				if !seen {
					id = int32(len(ids))
					ids[key] = id
					stored[id] = &g.Ports[0]
				}
				if g.ID != id {
					t.Errorf("switch %d, leaf %d: set %v has ID %d, want %d", sw.Node, li, g.Ports, g.ID, id)
				}
				if &g.Ports[0] != stored[id] {
					t.Errorf("switch %d, leaf %d: set %v stored twice", sw.Node, li, g.Ports)
				}
			}
		}
		for _, e := range sw.Engines() {
			if len(e.groups) != len(ids) {
				t.Errorf("switch %d engine %d: %d state slots, want %d distinct sets", sw.Node, e.Index, len(e.groups), len(ids))
			}
		}
	}

	// A spine skips no leaf, so its whole layout is fixed.
	sw := n.Switches[tp.Nodes[0].ID]
	if sw.Kind != topo.Spine {
		t.Fatalf("fixture: node 0 is a %v, want a spine", sw.Kind)
	}
	a, b, c := lowestPorts(sw)
	want := [][]Group{
		nil,
		{{ID: 0, Ports: []int32{a, c}, Weight: 2}, {ID: 1, Ports: []int32{b}, Weight: 1}},
		{{ID: 1, Ports: []int32{b}, Weight: 3}},
		{{ID: 2, Ports: []int32{a, b, c}, Weight: 1}, {ID: 0, Ports: []int32{a, c}, Weight: 4}},
	}
	for li := range want {
		if got := sw.Groups(int32(li)); fmt.Sprint(got) != fmt.Sprint(want[li]) {
			t.Errorf("spine, leaf %d: groups %v, want %v", li, got, want[li])
		}
	}
}

// countingLB sprays like randomLB and counts Choose calls per switch.
type countingLB struct {
	randomLB
	calls map[topo.NodeID]int
}

func (c *countingLB) Choose(n *Network, sw *Switch, eng *Engine, pkt *Packet) int32 {
	c.calls[sw.Node]++
	return c.randomLB.Choose(n, sw, eng, pkt)
}

// TestFlatTableForwarding: forward consults the balancer only for entries
// with a choice. On the default tables of a leaf–spine fabric every
// leaf-to-leaf packet has one (two spines at its source leaf) and none
// afterwards (one port down each spine), so Choose runs once per packet,
// never at a spine.
func TestFlatTableForwarding(t *testing.T) {
	lb := &countingLB{calls: map[topo.NodeID]int{}}
	s, n, tp := newNet(t, Config{Balancer: lb})
	src, dst := n.Host(tp.Hosts[0]), tp.Hosts[2]
	n.Host(dst).Handler = &sink{}
	const pkts = 40
	for i := 0; i < pkts; i++ {
		src.Send(&Packet{FlowID: uint64(i), Hash: uint32(i), Dst: dst, Size: 1518})
	}
	s.Run()
	if n.Delivered != pkts {
		t.Fatalf("delivered %d of %d", n.Delivered, pkts)
	}
	if got := lb.calls[src.Leaf]; got != pkts || len(lb.calls) != 1 {
		t.Fatalf("Choose calls per switch %v, want %d at the source leaf %d only", lb.calls, pkts, src.Leaf)
	}
}

// TestUnreachableDropsAtSwitchTier: a packet toward a leaf the switch has
// no entry for is dropped at the switch, booked against its own
// forwarding tier, without a balancer call or a port drop.
func TestUnreachableDropsAtSwitchTier(t *testing.T) {
	n, tp := newLayoutNet(1)
	dst := tp.Hosts[0] // on leaf 0, which layoutLB leaves unreachable
	for _, sw := range n.SwitchList() {
		if sw.Node == tp.Leaves[0] {
			continue
		}
		before := n.Hops.Drops
		n.forward(sw, sw.engines[0], &Packet{Hash: 1, Dst: dst, DstLeaf: tp.Leaves[0], DstLeafIdx: 0, Size: 1518})
		for c := range n.Hops.Drops {
			want := before[c]
			if metrics.HopClass(c) == sw.dropHop {
				want++
			}
			if n.Hops.Drops[c] != want {
				t.Errorf("%v %d: hop class %d drops %d, want %d", sw.Kind, sw.Node, c, n.Hops.Drops[c], want)
			}
		}
	}
	for _, p := range n.Ports {
		if p.Drops != 0 || p.QueueLen() != 0 {
			t.Errorf("port %d: %d drops, %d queued; want none", p.Index, p.Drops, p.QueueLen())
		}
	}
	if leaf, spine := n.Switches[tp.Leaves[1]].dropHop, n.Switches[tp.Nodes[0].ID].dropHop; leaf != metrics.Hop1 || spine != metrics.Hop2 {
		t.Fatalf("drop tiers: leaf %v, spine %v; want Hop1, Hop2", leaf, spine)
	}
}

// TestEngineStateRestartsPerEpoch: an engine's typed per-group state has
// one slot per distinct port set, creates a group's selector once and
// without drawing from the engine's random stream, and starts over when
// the next epoch is applied.
func TestEngineStateRestartsPerEpoch(t *testing.T) {
	n, _ := newLayoutNet(2)
	twin, _ := newLayoutNet(2)
	for _, sw := range n.SwitchList() {
		for ei, e := range sw.Engines() {
			sel := e.Selector(0, 2, 1)
			if e.Selector(0, 2, 1) != sel || sel.D() != 2 || sel.M() != 1 {
				t.Fatalf("switch %d engine %d: selector not kept, or not DRILL(2,1)", sw.Node, ei)
			}
			if got, want := e.Rng.Int63(), twin.Switches[sw.Node].engines[ei].Rng.Int63(); got != want {
				t.Fatalf("switch %d engine %d: creating a selector moved the random stream", sw.Node, ei)
			}
			for want := 0; want < 3; want++ {
				if got := e.NextRR(1); got != want {
					t.Fatalf("switch %d engine %d: round-robin position %d, want %d", sw.Node, ei, got, want)
				}
			}
		}
	}
	n.Reconverge()
	for _, sw := range n.SwitchList() {
		for ei, e := range sw.Engines() {
			for gid, st := range e.groups {
				if st != (groupState{}) {
					t.Fatalf("switch %d engine %d: group %d state %+v survived the epoch", sw.Node, ei, gid, st)
				}
			}
			if got := e.NextRR(1); got != 0 {
				t.Fatalf("switch %d engine %d: round-robin restarts at %d, want 0", sw.Node, ei, got)
			}
		}
	}
}

// TestInstallGroupsAllocs: building the default tables of a k=8 fat-tree
// allocates per switch, not per (switch, leaf) entry: 80 switches × 31
// remote leaves would be 2,480 entries.
func TestInstallGroupsAllocs(t *testing.T) {
	tp := topo.FatTree(topo.FatTreeConfig{K: 8})
	n := New(sim.New(1), tp, Config{Balancer: randomLB{}})
	switches := len(n.SwitchList())
	allocs := testing.AllocsPerRun(5, func() {
		n.building = &Epoch{}
		n.BuildDefaultTables()
	})
	n.building = nil
	if limit := 3 * float64(switches); allocs > limit {
		t.Fatalf("default tables: %.0f allocations for %d switches, want at most %.0f", allocs, switches, limit)
	}
	t.Logf("%.0f allocations for %d switches", allocs, switches)
}
