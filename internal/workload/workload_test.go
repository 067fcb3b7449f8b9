package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"drill/internal/fabric"
	"drill/internal/lb"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
)

func TestSizeDistSampleWithinRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []*SizeDist{FacebookWeb, FacebookCache, WebSearch, DataMining} {
		lo := int64(d.Points[0].Bytes)
		hi := int64(d.Points[len(d.Points)-1].Bytes)
		for i := 0; i < 10000; i++ {
			s := d.Sample(rng)
			if s < lo || s > hi {
				t.Fatalf("%s: sample %d outside [%d, %d]", d.Name, s, lo, hi)
			}
		}
	}
}

func TestSizeDistEmpiricalMeanMatchesAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []*SizeDist{FacebookWeb, FacebookCache} {
		var sum float64
		const n = 400000
		for i := 0; i < n; i++ {
			sum += float64(d.Sample(rng))
		}
		emp := sum / n
		if rel := math.Abs(emp-d.Mean()) / d.Mean(); rel > 0.05 {
			t.Errorf("%s: empirical mean %.0f vs analytic %.0f (%.1f%% off)",
				d.Name, emp, d.Mean(), rel*100)
		}
	}
}

func TestSizeDistMedianAnchored(t *testing.T) {
	// P(S <= anchor at F=0.5) ≈ 0.5 for FacebookWeb.
	rng := rand.New(rand.NewSource(7))
	below := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if FacebookWeb.Sample(rng) <= 2000 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.48 || frac > 0.52 {
		t.Errorf("median anchor: P(<=2KB) = %.3f, want ~0.5", frac)
	}
}

func TestSizeDistValidation(t *testing.T) {
	for _, bad := range [][]CDFPoint{
		{{0, 100}},                         // too few
		{{0.1, 100}, {1, 200}},             // doesn't start at 0
		{{0, 100}, {0.9, 200}},             // doesn't end at 1
		{{0, 100}, {0.5, 50}, {1, 200}},    // non-monotone bytes
		{{0, 100}, {0.6, 150}, {0.4, 120}}, // unsorted F
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSizeDist(%v) did not panic", bad)
				}
			}()
			NewSizeDist("bad", bad)
		}()
	}
}

func TestCoreUpCapacity(t *testing.T) {
	tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 4, Leaves: 16, HostsPerLeaf: 20,
		CoreRate: 40 * units.Gbps})
	want := units.Rate(16*4) * 40 * units.Gbps
	if got := CoreUpCapacity(tp); got != want {
		t.Fatalf("core capacity = %v, want %v", got, want)
	}
	// Failing one uplink removes 40G.
	var spine topo.NodeID
	for _, nd := range tp.Nodes {
		if nd.Kind == topo.Spine {
			spine = nd.ID
			break
		}
	}
	tp.FailLink(tp.LinkBetween(tp.Leaves[0], spine)[0])
	if got := CoreUpCapacity(tp); got != want-40*units.Gbps {
		t.Fatalf("after failure = %v", got)
	}
}

func testbed(t *testing.T) (*sim.Sim, *transport.Registry, *topo.Topology) {
	t.Helper()
	tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 2, Leaves: 4, HostsPerLeaf: 4,
		HostRate: 10 * units.Gbps, CoreRate: 10 * units.Gbps})
	s := sim.New(21)
	n := fabric.New(s, tp, fabric.Config{Balancer: lb.NewDRILL()})
	return s, transport.NewRegistry(s, n, transport.Config{}), tp
}

func TestGeneratorHitsTargetLoad(t *testing.T) {
	s, reg, tp := testbed(t)
	horizon := 10 * units.Millisecond
	g := NewGenerator(reg, FacebookWeb, 0.4, horizon)
	g.Start()
	s.RunUntil(horizon)
	// Offered demand = flows × mean size; compare against 40% of core.
	wantBits := 0.4 * float64(CoreUpCapacity(tp)) * horizon.Seconds()
	gotBits := float64(g.Started) * FacebookWeb.Mean() * 8
	ratio := gotBits / wantBits
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("offered/target = %.2f (started %d flows)", ratio, g.Started)
	}
	if g.Started < 50 {
		t.Fatalf("too few flows for a meaningful test: %d", g.Started)
	}
}

func TestGeneratorInterLeafOnly(t *testing.T) {
	s, reg, tp := testbed(t)
	seen := 0
	reg.OnComplete = func(f *transport.Sender) { seen++ }
	g := NewGenerator(reg, FacebookWeb, 0.2, 5*units.Millisecond)
	// Inspect pickRemote directly.
	for i := 0; i < 1000; i++ {
		src := tp.Hosts[g.rng.Intn(len(tp.Hosts))]
		dst := g.pickRemote(src)
		if tp.LeafOf(src) == tp.LeafOf(dst) {
			t.Fatal("generator picked an intra-leaf destination")
		}
	}
	_ = s
}

func TestIncastFires(t *testing.T) {
	s, reg, _ := testbed(t)
	inc := NewIncast(reg, 1*units.Millisecond, 5*units.Millisecond)
	inc.Start()
	s.Run()
	if inc.Events != 5 {
		t.Fatalf("incast events = %d, want 5", inc.Events)
	}
	d := reg.Stats.FCTByClass["incast"]
	if d == nil || d.Count() == 0 {
		t.Fatal("no incast flows completed")
	}
}

func TestStridePairs(t *testing.T) {
	_, _, tp := testbed(t)
	ps := Stride(tp, 8)
	if len(ps) != len(tp.Hosts) {
		t.Fatalf("pairs = %d", len(ps))
	}
	for i, p := range ps {
		want := tp.Hosts[(i+8)%len(tp.Hosts)]
		if p[1] != want {
			t.Fatalf("stride pair %d = %v, want %v", i, p[1], want)
		}
	}
}

func TestBijectionProperties(t *testing.T) {
	f := func(seed int64) bool {
		tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 2, Leaves: 4, HostsPerLeaf: 4})
		ps := Bijection(tp, rand.New(rand.NewSource(seed)))
		dsts := map[topo.NodeID]bool{}
		for _, p := range ps {
			if tp.LeafOf(p[0]) == tp.LeafOf(p[1]) {
				return false
			}
			if dsts[p[1]] {
				return false // not one-to-one
			}
			dsts[p[1]] = true
		}
		return len(ps) == len(tp.Hosts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePhases(t *testing.T) {
	_, _, tp := testbed(t)
	// Across all n-1 phases, each server must hit every other server once.
	n := len(tp.Hosts)
	for i, src := range tp.Hosts {
		seen := map[topo.NodeID]bool{}
		for r := 0; r < n-1; r++ {
			ps := ShufflePhase(tp, r)
			if ps[i][0] != src {
				t.Fatal("pair order changed")
			}
			if ps[i][1] == src {
				t.Fatal("self pair in shuffle")
			}
			seen[ps[i][1]] = true
		}
		if len(seen) != n-1 {
			t.Fatalf("server %d reached %d peers, want %d", i, len(seen), n-1)
		}
	}
}

func TestSyntheticElephantsAndMice(t *testing.T) {
	s, reg, tp := testbed(t)
	syn := NewSynthetic(reg, 200*units.Microsecond, 4*units.Millisecond)
	syn.Run(Stride(tp, 4))
	s.RunUntil(4 * units.Millisecond)
	if gp := syn.ElephantGoodput(4 * units.Millisecond); gp <= 0 {
		t.Fatalf("elephant goodput = %v", gp)
	}
	if reg.Stats.FCTByClass["mice"] == nil {
		t.Fatal("no mice completed")
	}
}
