package topo

import (
	"testing"
	"testing/quick"

	"drill/internal/units"
)

func leafSpine224() *Topology {
	return LeafSpine(LeafSpineConfig{Spines: 2, Leaves: 2, HostsPerLeaf: 4})
}

func TestLeafSpineShape(t *testing.T) {
	tp := LeafSpine(LeafSpineConfig{Spines: 4, Leaves: 16, HostsPerLeaf: 20})
	if got := len(tp.Hosts); got != 320 {
		t.Errorf("hosts = %d, want 320", got)
	}
	if got := len(tp.Leaves); got != 16 {
		t.Errorf("leaves = %d, want 16", got)
	}
	if got := tp.NumSwitches(); got != 20 {
		t.Errorf("switches = %d, want 20", got)
	}
	// 16*4 core + 16*20 host links.
	if got := len(tp.Links); got != 64+320 {
		t.Errorf("links = %d, want 384", got)
	}
	for _, h := range tp.Hosts {
		leaf := tp.LeafOf(h)
		if tp.Nodes[leaf].Kind != Leaf {
			t.Fatalf("host %d attached to non-leaf %v", h, tp.Nodes[leaf].Kind)
		}
	}
}

func TestChanDirections(t *testing.T) {
	tp := New()
	a := tp.AddNode(Leaf, "a")
	b := tp.AddNode(Spine, "b")
	l := tp.AddLink(a, b, 10*units.Gbps, 100)
	fwd := tp.Chan(ChanID(2 * l))
	rev := tp.Chan(ChanID(2*l + 1))
	if fwd.From != a || fwd.To != b || rev.From != b || rev.To != a {
		t.Fatalf("channel directions wrong: %+v %+v", fwd, rev)
	}
	if fwd.Rate != 10*units.Gbps || fwd.Prop != 100 {
		t.Fatalf("channel attrs wrong: %+v", fwd)
	}
}

func TestRoutesLeafSpine(t *testing.T) {
	tp := leafSpine224()
	r := ComputeRoutes(tp)
	l0, l1 := tp.Leaves[0], tp.Leaves[1]
	if d := r.Dist(l0, l1); d != 2 {
		t.Errorf("dist(l0,l1) = %d, want 2", d)
	}
	if d := r.Dist(l0, l0); d != 0 {
		t.Errorf("dist(l0,l0) = %d, want 0", d)
	}
	nh := r.NextHops(l0, l1)
	if len(nh) != 2 {
		t.Fatalf("next hops = %d, want 2 (one per spine)", len(nh))
	}
	for _, cid := range nh {
		c := tp.Chan(cid)
		if tp.Nodes[c.To].Kind != Spine {
			t.Errorf("next hop to %v, want spine", tp.Nodes[c.To].Kind)
		}
	}
	paths := r.Paths(l0, l1)
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if len(p) != 2 {
			t.Errorf("path length %d, want 2", len(p))
		}
	}
}

func TestRoutesAfterFailure(t *testing.T) {
	tp := leafSpine224()
	l0, l1 := tp.Leaves[0], tp.Leaves[1]
	// Fail the link between leaf0 and spine0.
	var spine0 NodeID = -1
	for _, n := range tp.Nodes {
		if n.Kind == Spine {
			spine0 = n.ID
			break
		}
	}
	links := tp.LinkBetween(l0, spine0)
	if len(links) != 1 {
		t.Fatalf("links l0-s0 = %d, want 1", len(links))
	}
	tp.FailLink(links[0])
	r := ComputeRoutes(tp)
	if got := len(r.NextHops(l0, l1)); got != 1 {
		t.Errorf("next hops after failure = %d, want 1", got)
	}
	// Reverse direction l1→l0 still has 2 choices up, but paths via spine0
	// must end at l0 only via its remaining link... spine0 cannot reach l0.
	nh := r.NextHops(l1, l0)
	if len(nh) != 1 {
		t.Errorf("l1→l0 next hops = %d, want 1 (spine0 lost its l0 link)", len(nh))
	}
	tp.RestoreLink(links[0])
	r = ComputeRoutes(tp)
	if got := len(r.NextHops(l0, l1)); got != 2 {
		t.Errorf("next hops after restore = %d, want 2", got)
	}
}

func TestHostsNotTransit(t *testing.T) {
	// A host dangling on leaf0 must never appear inside a leaf-to-leaf path.
	tp := leafSpine224()
	r := ComputeRoutes(tp)
	for _, src := range tp.Leaves {
		for _, dst := range tp.Leaves {
			if src == dst {
				continue
			}
			for _, p := range r.Paths(src, dst) {
				for _, n := range r.PathNodes(src, p) {
					if tp.Nodes[n].Kind == Host {
						t.Fatalf("host %d on transit path %v", n, p)
					}
				}
			}
		}
	}
}

func TestVL2Shape(t *testing.T) {
	tp := VL2(VL2Config{ToRs: 16, Aggs: 8, Ints: 4, HostsPerToR: 20})
	if len(tp.Hosts) != 320 {
		t.Errorf("hosts = %d", len(tp.Hosts))
	}
	if len(tp.Leaves) != 16 {
		t.Errorf("tors = %d", len(tp.Leaves))
	}
	r := ComputeRoutes(tp)
	t0, t1 := tp.Leaves[0], tp.Leaves[1]
	if d := r.Dist(t0, t1); d != 4 {
		t.Errorf("ToR-to-ToR dist = %d, want 4 (ToR-Agg-Int-Agg-ToR)", d)
	}
	paths := r.Paths(t0, t1)
	// 2 aggs up × 4 ints × 2 aggs down... but only aggs wired to t1 count:
	// each path is up-agg → int → down-agg; t0 and t1 each touch 2 aggs,
	// so 2 × 4 × 2 = 16 shortest paths.
	if len(paths) != 16 {
		t.Errorf("paths = %d, want 16", len(paths))
	}
}

func TestFatTreeShape(t *testing.T) {
	tp := FatTree(FatTreeConfig{K: 4})
	// k=4: 16 hosts, 8 edge, 8 agg, 4 core.
	if len(tp.Hosts) != 16 {
		t.Errorf("hosts = %d, want 16", len(tp.Hosts))
	}
	if len(tp.Leaves) != 8 {
		t.Errorf("edges = %d, want 8", len(tp.Leaves))
	}
	if tp.NumSwitches() != 20 {
		t.Errorf("switches = %d, want 20", tp.NumSwitches())
	}
	r := ComputeRoutes(tp)
	// Same pod: edge-agg-edge = 2 hops, 2 paths (one per agg).
	e0, e1 := tp.Leaves[0], tp.Leaves[1]
	if d := r.Dist(e0, e1); d != 2 {
		t.Errorf("intra-pod dist = %d, want 2", d)
	}
	if got := len(r.Paths(e0, e1)); got != 2 {
		t.Errorf("intra-pod paths = %d, want 2", got)
	}
	// Different pod: 4 hops, 4 paths (one per core).
	e2 := tp.Leaves[2]
	if d := r.Dist(e0, e2); d != 4 {
		t.Errorf("inter-pod dist = %d, want 4", d)
	}
	if got := len(r.Paths(e0, e2)); got != 4 {
		t.Errorf("inter-pod paths = %d, want 4", got)
	}
}

func TestHeterogeneousParallelLinks(t *testing.T) {
	tp := Heterogeneous(HeterogeneousConfig{Spines: 4, Leaves: 4, HostsPerLeaf: 2, ExtraLinks: 2})
	// Leaf0 connects to S0 and S1 with 2 links each, S2/S3 with 1.
	l0 := tp.Leaves[0]
	var s [4]NodeID
	i := 0
	for _, n := range tp.Nodes {
		if n.Kind == Spine {
			s[i] = n.ID
			i++
		}
	}
	if got := len(tp.LinkBetween(l0, s[0])); got != 2 {
		t.Errorf("links l0-s0 = %d, want 2", got)
	}
	if got := len(tp.LinkBetween(l0, s[2])); got != 1 {
		t.Errorf("links l0-s2 = %d, want 1", got)
	}
	r := ComputeRoutes(tp)
	// Next hops from l0 to l2 (far leaf): channels = 2+2+1+1 = 6.
	if got := len(r.NextHops(l0, tp.Leaves[2])); got != 6 {
		t.Errorf("next hops = %d, want 6", got)
	}
}

func TestPathsMatchNextHops(t *testing.T) {
	// Property: the first channel of every enumerated path is a next hop,
	// and every next hop starts at least one path.
	tp := VL2(VL2Config{ToRs: 4, Aggs: 4, Ints: 2, HostsPerToR: 2})
	r := ComputeRoutes(tp)
	f := func(a, b uint8) bool {
		src := tp.Leaves[int(a)%len(tp.Leaves)]
		dst := tp.Leaves[int(b)%len(tp.Leaves)]
		if src == dst {
			return true
		}
		nh := map[ChanID]bool{}
		for _, c := range r.NextHops(src, dst) {
			nh[c] = false
		}
		for _, p := range r.Paths(src, dst) {
			if _, ok := nh[p[0]]; !ok {
				return false
			}
			nh[p[0]] = true
			if len(p) != r.Dist(src, dst) {
				return false
			}
		}
		for _, used := range nh {
			if !used {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendPathsKeepsPrefix(t *testing.T) {
	// AppendPaths extends what buf already holds, grows it exactly once
	// to fit, and appends nothing for src == dst or an unreachable leaf.
	tp := FatTree(FatTreeConfig{K: 4})
	r := ComputeRoutes(tp)
	e0, e2 := tp.Leaves[0], tp.Leaves[2]
	buf := r.AppendPaths([]ChanID{-1}, e0, e2)
	if len(buf) != 1+4*4 || cap(buf) != len(buf) || buf[0] != -1 {
		t.Fatalf("AppendPaths onto one entry: len %d cap %d head %d, want 17 17 -1", len(buf), cap(buf), buf[0])
	}
	for i, p := range r.Paths(e0, e2) {
		for j, c := range p {
			if buf[1+4*i+j] != c {
				t.Fatalf("path %d hop %d: flat %d, Paths %d", i, j, buf[1+4*i+j], c)
			}
		}
	}
	if got := r.AppendPaths(buf[:1], e0, e0); len(got) != 1 {
		t.Errorf("src == dst appended %d channels", len(got)-1)
	}
	for _, cid := range tp.OutAll(e2) {
		if tp.Nodes[tp.Chan(cid).To].Kind != Host {
			tp.FailLink(tp.Chan(cid).Link)
		}
	}
	if got := ComputeRoutes(tp).AppendPaths(buf[:1], e0, e2); len(got) != 1 {
		t.Errorf("unreachable leaf appended %d channels", len(got)-1)
	}
}

func TestOutFiltersFailedLinks(t *testing.T) {
	tp := leafSpine224()
	l0 := tp.Leaves[0]
	before := len(tp.Out(l0))
	tp.FailLink(tp.Links[tp.out[l0][0]/2].ID)
	if got := len(tp.Out(l0)); got != before-1 {
		t.Errorf("Out after fail = %d, want %d", got, before-1)
	}
	if got := len(tp.OutAll(l0)); got != before {
		t.Errorf("OutAll = %d, want %d", got, before)
	}
}

// TestCapacityWeights pins the one capacity rule WCMP, Presto and the
// Quiver share: a path's capacity is its slowest link, and a weight is a
// capacity over its table's GCD, never below 1.
func TestCapacityWeights(t *testing.T) {
	tp := New()
	a, b, c := tp.AddNode(Leaf, "a"), tp.AddNode(Spine, "b"), tp.AddNode(Leaf, "c")
	ab := tp.AddLink(a, b, 40*units.Gbps, 0)
	bc := tp.AddLink(b, c, 10*units.Gbps, 0)
	if got := tp.Bottleneck([]ChanID{ChanID(2 * ab), ChanID(2 * bc)}); got != 10*units.Gbps {
		t.Fatalf("bottleneck of a 40G then 10G path = %v, want 10G", got)
	}
	if got := tp.Bottleneck(nil); got != 0 {
		t.Fatalf("bottleneck of the empty path = %v, want 0", got)
	}
	g := GCD(GCD(0, 40*units.Gbps), 10*units.Gbps)
	if g != 10*units.Gbps {
		t.Fatalf("GCD(40G, 10G) = %v, want 10G", g)
	}
	for _, tc := range []struct {
		c, g units.Rate
		want uint32
	}{
		{40 * units.Gbps, g, 4},
		{10 * units.Gbps, g, 1},
		{0, g, 1}, // a capacity below the GCD still gets a share
		{0, 0, 1}, // an all-zero table weighs 1 everywhere
	} {
		if got := Weight(tc.c, tc.g); got != tc.want {
			t.Errorf("Weight(%v, %v) = %d, want %d", tc.c, tc.g, got, tc.want)
		}
	}
}
