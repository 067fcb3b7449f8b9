package quiver

import (
	"reflect"
	"sync"
	"testing"

	"drill/internal/topo"
	"drill/internal/units"
)

// fig4 builds the paper's Figure 4 topology: leaves L0..L3, spines S0..S2,
// all leaf-spine pairs linked at 40G, one host per leaf.
func fig4() (*topo.Topology, []topo.NodeID, []topo.NodeID) {
	t := topo.New()
	var spines, leaves []topo.NodeID
	for i := 0; i < 3; i++ {
		spines = append(spines, t.AddNode(topo.Spine, "S"))
	}
	for i := 0; i < 4; i++ {
		l := t.AddNode(topo.Leaf, "L")
		leaves = append(leaves, l)
		for _, s := range spines {
			t.AddLink(l, s, 40*units.Gbps, topo.DefaultProp)
		}
		h := t.AddNode(topo.Host, "h")
		t.AddLink(h, l, 10*units.Gbps, topo.DefaultProp)
	}
	return t, leaves, spines
}

func TestSymmetricTopologySingleComponent(t *testing.T) {
	tp, leaves, _ := fig4()
	q := Build(topo.ComputeRoutes(tp))
	for _, src := range leaves {
		for _, dst := range leaves {
			if src == dst {
				continue
			}
			comps := q.Decompose(src, dst)
			if len(comps) != 1 {
				t.Fatalf("symmetric Clos: %d components, want 1", len(comps))
			}
			if len(comps[0].FirstHops) != 3 {
				t.Fatalf("first hops = %d, want 3 spines", len(comps[0].FirstHops))
			}
			if comps[0].Weight != 1 {
				t.Fatalf("weight = %d, want 1", comps[0].Weight)
			}
		}
	}
}

func TestFig4FailureDecomposition(t *testing.T) {
	// Fail L0-S0. L3→L1 paths: P0 via S0 escapes the L0→L1 collision;
	// P1/P2 via S1/S2 share their second hop labels with L0→L1 traffic.
	// Expect components {P0} and {P1, P2} with weights 1 and 2.
	tp, leaves, spines := fig4()
	link := tp.LinkBetween(leaves[0], spines[0])[0]
	tp.FailLink(link)
	q := Build(topo.ComputeRoutes(tp))

	comps := q.Decompose(leaves[3], leaves[1])
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	var solo, pair *Component
	for i := range comps {
		switch comps[i].NumPaths {
		case 1:
			solo = &comps[i]
		case 2:
			pair = &comps[i]
		}
	}
	if solo == nil || pair == nil {
		t.Fatalf("bad split: %d and %d paths", comps[0].NumPaths, comps[1].NumPaths)
	}
	// The solo component goes via S0.
	first := tp.Chan(solo.FirstHops[0])
	if first.To != spines[0] {
		t.Errorf("solo component via %v, want S0", first.To)
	}
	if solo.Weight != 1 || pair.Weight != 2 {
		t.Errorf("weights = %d,%d, want 1,2", solo.Weight, pair.Weight)
	}
	if len(pair.FirstHops) != 2 {
		t.Errorf("pair first hops = %d", len(pair.FirstHops))
	}
	// L2→L1 decomposes identically; L3→L2 traffic is untouched by the
	// failure on the downstream side but its spine links now carry
	// different label sets (S0 lost L0's flows), still symmetric for S1,S2.
	comps21 := q.Decompose(leaves[2], leaves[1])
	if len(comps21) != 2 {
		t.Errorf("L2→L1 components = %d, want 2", len(comps21))
	}
}

func TestHostLinkFailureKeepsSymmetry(t *testing.T) {
	// §3.4.1: "suppose a link from a host h to its top-of-rack switch
	// fails. Then symmetry is still satisfied."
	tp, leaves, _ := fig4()
	host := tp.Hosts[0]
	link := tp.LinkBetween(host, tp.LeafOf(host))[0]
	tp.FailLink(link)
	q := Build(topo.ComputeRoutes(tp))
	comps := q.Decompose(leaves[3], leaves[1])
	if len(comps) != 1 {
		t.Fatalf("host-link failure created asymmetry: %d components", len(comps))
	}
}

func TestDecompositionIsPartition(t *testing.T) {
	// Property over several failure patterns: the reference's path groups
	// partition the path set and match the components' path counts;
	// intra-group paths are symmetric; inter-group are not.
	tp, leaves, spines := fig4()
	tp.FailLink(tp.LinkBetween(leaves[0], spines[0])[0])
	tp.FailLink(tp.LinkBetween(leaves[2], spines[1])[0])
	r := topo.ComputeRoutes(tp)
	q, ref := Build(r), buildReference(r)
	for _, src := range leaves {
		for _, dst := range leaves {
			if src == dst {
				continue
			}
			all := r.Paths(src, dst)
			comps := q.Decompose(src, dst)
			_, groups := ref.Decompose(src, dst)
			if len(groups) != len(comps) {
				t.Fatalf("%d components, reference groups paths into %d", len(comps), len(groups))
			}
			n := 0
			for ci, group := range groups {
				if int(comps[ci].NumPaths) != len(group) {
					t.Fatalf("component %d counts %d paths, its group holds %d", ci, comps[ci].NumPaths, len(group))
				}
				n += len(group)
				for i := 0; i < len(group); i++ {
					for j := i + 1; j < len(group); j++ {
						if !q.Symmetric(group[i], group[j]) {
							t.Fatalf("asymmetric paths grouped: %v vs %v", group[i], group[j])
						}
					}
				}
				for cj := ci + 1; cj < len(groups); cj++ {
					for _, p1 := range group {
						for _, p2 := range groups[cj] {
							if q.Symmetric(p1, p2) {
								t.Fatalf("symmetric paths split across components")
							}
						}
					}
				}
			}
			if n != len(all) {
				t.Fatalf("partition lost paths: %d vs %d", n, len(all))
			}
		}
	}
}

func TestCapacityFactorRational(t *testing.T) {
	cf1 := NewCapFactor(40*units.Gbps, 10*units.Gbps)
	if cf1.Num != 4 || cf1.Den != 1 {
		t.Errorf("cf = %v, want 4/1", cf1)
	}
	cf2 := NewCapFactor(10*units.Gbps, 40*units.Gbps)
	if cf2.Num != 1 || cf2.Den != 4 {
		t.Errorf("cf = %v, want 1/4", cf2)
	}
	if NewCapFactor(10*units.Gbps, 10*units.Gbps) != (CapFactor{1, 1}) {
		t.Error("equal-rate cf should reduce to 1/1")
	}
	if Infinity.Den != 0 {
		t.Error("infinity sentinel broken")
	}
}

func TestHeterogeneousLinksSplitComponents(t *testing.T) {
	// §3.4.3's example: upgrade L0-S0, L0-S1, L1-S0 to 40G, leave the rest
	// at 10G. The three L0→L1 paths become mutually asymmetric via capacity
	// factors (S0→L1 sees cf 1 vs 1/4 mixes; S1→L1 sees cf 4; S2→L1 cf 1).
	t2 := topo.New()
	var spines, leaves []topo.NodeID
	for i := 0; i < 3; i++ {
		spines = append(spines, t2.AddNode(topo.Spine, "S"))
	}
	for i := 0; i < 4; i++ {
		leaves = append(leaves, t2.AddNode(topo.Leaf, "L"))
	}
	for li, l := range leaves {
		for si, s := range spines {
			rate := 10 * units.Gbps
			if (li == 0 && si <= 1) || (li == 1 && si == 0) {
				rate = 40 * units.Gbps
			}
			t2.AddLink(l, s, rate, topo.DefaultProp)
		}
		h := t2.AddNode(topo.Host, "h")
		t2.AddLink(h, l, 10*units.Gbps, topo.DefaultProp)
	}
	q := Build(topo.ComputeRoutes(t2))
	comps := q.Decompose(leaves[0], leaves[1])
	if len(comps) < 2 {
		t.Fatalf("heterogeneous links produced %d components, want >= 2", len(comps))
	}
	// Total weight must reflect capacities: paths via S0 (40G bottleneck)
	// carry 4x the weight of a 10G path component.
	var hiW, loW uint32
	for _, c := range comps {
		if c.Capacity >= 40*units.Gbps {
			hiW = c.Weight
		} else if loW == 0 {
			loW = c.Weight
		}
	}
	if hiW == 0 || loW == 0 || hiW != 4*loW {
		t.Errorf("capacity weights hi=%d lo=%d, want 4:1", hiW, loW)
	}
}

func TestScoresDistinguishLabeledLinks(t *testing.T) {
	tp, leaves, spines := fig4()
	tp.FailLink(tp.LinkBetween(leaves[0], spines[0])[0])
	r := topo.ComputeRoutes(tp)
	q := Build(r)
	// S0→L1 lacks L0-sourced labels; S1→L1 has them.
	s0l1 := topo.ChanID(-1)
	s1l1 := topo.ChanID(-1)
	for _, cid := range tp.Out(spines[0]) {
		if tp.Chan(cid).To == leaves[1] {
			s0l1 = cid
		}
	}
	for _, cid := range tp.Out(spines[1]) {
		if tp.Chan(cid).To == leaves[1] {
			s1l1 = cid
		}
	}
	if q.Score(s0l1) == q.Score(s1l1) {
		t.Fatal("scores fail to distinguish asymmetric links")
	}
	lbl := buildReference(r).Labels(s1l1)
	foundL0 := false
	for _, l := range lbl {
		if l.Src == leaves[0] && l.Dst == leaves[1] {
			foundL0 = true
		}
	}
	if !foundL0 {
		t.Fatal("S1→L1 missing the L0→L1 label")
	}
}

// fatTreeRoutes returns the routes of a symmetric k-ary fat-tree of 10G
// links, whose leaves reach leaves in other pods over (k/2)² paths.
func fatTreeRoutes(k int) *topo.Routes {
	return topo.ComputeRoutes(topo.FatTree(topo.FatTreeConfig{K: k, LinkRate: 10 * units.Gbps}))
}

// decomposeAll decomposes every switch toward every leaf on a fresh
// Quiver with q's scores, the work of one DRILL table build, and returns
// the components of the last entry.
func decomposeAll(q *Quiver) []Component {
	fresh := &Quiver{routes: q.routes, scores: q.scores}
	tp := q.routes.Topo()
	var comps []Component
	for _, s := range tp.Switches {
		for _, leaf := range tp.Leaves {
			comps = fresh.Decompose(s, leaf)
		}
	}
	return comps
}

// TestDecomposeAllocs: the whole decomposition, every switch toward every
// leaf, allocates the same few arrays on symmetric k=4 and k=8
// fat-trees — none per switch, leaf, component or path — and a call once
// it is done allocates nothing.
func TestDecomposeAllocs(t *testing.T) {
	var counts []float64
	for _, k := range []int{4, 8} {
		q := Build(fatTreeRoutes(k))
		counts = append(counts, testing.AllocsPerRun(5, func() { sinkComps = decomposeAll(q) }))
	}
	if counts[0] != counts[1] || counts[0] > 12 {
		t.Fatalf("decomposition allocations on k=4 and k=8: %v; want one count, at most 12", counts)
	}
	r := fatTreeRoutes(8)
	q := Build(r)
	leaves := r.Topo().Leaves
	src, dst := leaves[0], leaves[len(leaves)-1]
	var comps []Component
	allocs := testing.AllocsPerRun(100, func() { comps = q.Decompose(src, dst) })
	if len(comps) != 1 || comps[0].NumPaths != 16 || len(comps[0].FirstHops) != 4 {
		t.Fatalf("symmetric fat-tree across pods: %+v, want one component of 16 paths over 4 uplinks", comps)
	}
	if allocs != 0 {
		t.Fatalf("Decompose allocates %v times per call once done, want 0", allocs)
	}
	t.Logf("%v allocations per decomposition", counts)
}

// TestDecomposeConcurrent: goroutines that call Decompose on a fresh
// Quiver at once see the decomposition one of them computes, and the same
// components a lone caller sees. Run it under -race.
func TestDecomposeConcurrent(t *testing.T) {
	tp, leaves, spines := fig4()
	tp.FailLink(tp.LinkBetween(leaves[0], spines[0])[0])
	r := topo.ComputeRoutes(tp)
	want := Build(r)
	q := &Quiver{routes: r, scores: want.scores}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range tp.Switches {
				for _, leaf := range tp.Leaves {
					if got, want := q.Decompose(s, leaf), want.Decompose(s, leaf); !reflect.DeepEqual(got, want) {
						t.Errorf("%d→%d: components %+v, alone %+v", s, leaf, got, want)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuildAllocs bounds Build's allocations on a symmetric k=8 fat-tree:
// the scores and a few per-channel and per-node arrays — never one per
// pair, path, channel or label.
func TestBuildAllocs(t *testing.T) {
	r := fatTreeRoutes(8)
	if allocs := testing.AllocsPerRun(10, func() { sinkQuiver = Build(r) }); allocs > 12 {
		t.Fatalf("Build allocates %v times, want at most 12", allocs)
	}
}

var (
	sinkQuiver *Quiver
	sinkComps  []Component
)

// BenchmarkBuild labels a k=12 fat-tree: 72 leaves, 5112 ordered pairs,
// 36 paths between pods.
func BenchmarkBuild(b *testing.B) {
	r := fatTreeRoutes(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkQuiver = Build(r)
	}
}

// BenchmarkDecompose decomposes every switch's paths toward every leaf of
// a k=12 fat-tree on a fresh Quiver, the work of one DRILL table build.
func BenchmarkDecompose(b *testing.B) {
	q := Build(fatTreeRoutes(12))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkComps = decomposeAll(q)
	}
}
