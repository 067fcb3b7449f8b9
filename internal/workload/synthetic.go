package workload

import (
	"math/rand"

	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
)

// Table 1's flow sizes. A negative elephantSize runs elephants open-ended
// (throughput measured via Sender.AckedBytes); the paper uses 1GB, which
// never completes inside a short window, so open-ended is equivalent.
const (
	elephantSize = -1
	miceSize     = 50_000
)

// Synthetic implements the Table 1 patterns: long-running "elephant" flows
// arranged by a pattern, plus periodic 50KB "mice" probes whose FCT is the
// latency metric.
type Synthetic struct {
	Reg        *transport.Registry
	MicePeriod units.Time
	Until      units.Time

	rng *rand.Rand

	// Elephants lists the long flows started, for throughput accounting.
	Elephants []*transport.Sender
}

// NewSynthetic returns the Table 1 configuration (open-ended elephants,
// 50KB mice).
func NewSynthetic(reg *transport.Registry, micePeriod, until units.Time) *Synthetic {
	return &Synthetic{
		Reg: reg, MicePeriod: micePeriod, Until: until,
		rng: reg.Sim.Stream(0x5e7),
	}
}

// pairs returns the (src, dst) host pairs of a pattern.
type pairs [][2]topo.NodeID

// Stride pairs server[i] with server[(i+x) mod n] (Table 1's Stride(8)).
func Stride(t *topo.Topology, x int) pairs {
	n := len(t.Hosts)
	ps := make(pairs, 0, n)
	for i, src := range t.Hosts {
		dst := t.Hosts[(i+x)%n]
		if src == dst {
			continue
		}
		ps = append(ps, [2]topo.NodeID{src, dst})
	}
	return ps
}

// Bijection pairs each server with a random destination under a different
// leaf, one-to-one (Table 1's "Random" permutation workload). It is built
// constructively — a random leaf rotation composed with random in-leaf
// matchings — so it works at any scale where leaves have equal host counts
// (rejection sampling has vanishing success probability past ~20 hosts).
func Bijection(t *topo.Topology, rng *rand.Rand) pairs {
	byLeaf := make([][]topo.NodeID, len(t.Leaves))
	idx := map[topo.NodeID]int{}
	for i, l := range t.Leaves {
		idx[l] = i
	}
	for _, h := range t.Hosts {
		li := idx[t.LeafOf(h)]
		byLeaf[li] = append(byLeaf[li], h)
	}
	per := len(byLeaf[0])
	for _, hs := range byLeaf {
		if len(hs) != per {
			panic("workload: Bijection requires equal hosts per leaf")
		}
	}
	if len(t.Leaves) < 2 {
		panic("workload: Bijection requires >= 2 leaves")
	}
	// Rotate leaves by a random non-zero offset (a derangement of leaves),
	// and match hosts across each leaf pair in shuffled order.
	rot := 1 + rng.Intn(len(t.Leaves)-1)
	var ps pairs
	for li, srcs := range byLeaf {
		dsts := append([]topo.NodeID(nil), byLeaf[(li+rot)%len(byLeaf)]...)
		rng.Shuffle(len(dsts), func(i, j int) { dsts[i], dsts[j] = dsts[j], dsts[i] })
		order := rng.Perm(len(srcs))
		for k, si := range order {
			ps = append(ps, [2]topo.NodeID{srcs[si], dsts[k]})
		}
	}
	return ps
}

// ShufflePhase returns round r of an all-to-all shuffle: server i sends to
// its r-th destination in a per-server random order. The full shuffle is
// n-1 phases; experiments run the first few.
func ShufflePhase(t *topo.Topology, r int) pairs {
	n := len(t.Hosts)
	ps := make(pairs, 0, n)
	for i, src := range t.Hosts {
		order := rand.New(rand.NewSource(int64(i)*7919 + 13)).Perm(n - 1)
		jRel := order[r%(n-1)]
		j := jRel
		if j >= i {
			j++
		}
		ps = append(ps, [2]topo.NodeID{src, t.Hosts[j]})
	}
	return ps
}

// Run starts the elephants on the given pairs and the periodic mice probes
// between random inter-leaf host pairs.
func (s *Synthetic) Run(ps pairs) {
	for _, p := range ps {
		s.Elephants = append(s.Elephants,
			s.Reg.StartFlow(p[0], p[1], elephantSize, "elephant"))
	}
	s.scheduleMice(s.Reg.Sim.Now() + s.MicePeriod)
}

func (s *Synthetic) scheduleMice(at units.Time) {
	if at > s.Until {
		return
	}
	s.Reg.Sim.AtGlobal(at, func() {
		t := s.Reg.Net.Topo
		src := t.Hosts[s.rng.Intn(len(t.Hosts))]
		var dst topo.NodeID
		for {
			dst = t.Hosts[s.rng.Intn(len(t.Hosts))]
			if dst != src && t.LeafOf(dst) != t.LeafOf(src) {
				break
			}
		}
		s.Reg.StartFlow(src, dst, miceSize, "mice")
		s.scheduleMice(at + s.MicePeriod)
	})
}

// ElephantGoodput returns the mean per-elephant goodput in Gbps over the
// given window.
func (s *Synthetic) ElephantGoodput(window units.Time) float64 {
	if len(s.Elephants) == 0 || window <= 0 {
		return 0
	}
	var bytes int64
	for _, e := range s.Elephants {
		bytes += e.AckedBytes()
	}
	return float64(bytes) * 8 / window.Seconds() / 1e9 / float64(len(s.Elephants))
}
