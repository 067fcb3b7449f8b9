package quiver

import (
	"fmt"
	"math/rand"
	"testing"

	"drill/internal/topo"
	"drill/internal/units"
)

// fuzzTopo builds a small randomized fabric. An even shape is a 2-tier
// leaf–spine with a%4+2 spines and b%4+2 leaves; an odd shape is a 3-tier
// k-ary fat-tree with k = 4 or 6 (by a), whose down-links toward a leaf
// carry several capacity factors per leaf pair once rates differ. Fabric
// link rates are drawn from a heterogeneous set when hetero is odd
// (uniform 40G otherwise), and `fails` randomly chosen fabric links are
// failed. Everything derives from the seeded rng, so a crashing input
// reproduces.
func fuzzTopo(seed int64, shape, a, b, hetero, failsB uint8) *topo.Topology {
	rng := rand.New(rand.NewSource(seed))
	rates := []units.Rate{10 * units.Gbps, 25 * units.Gbps, 40 * units.Gbps, 100 * units.Gbps}

	tp := topo.New()
	var core []topo.LinkID
	link := func(x, y topo.NodeID) {
		rate := 40 * units.Gbps
		if hetero%2 == 1 {
			rate = rates[rng.Intn(len(rates))]
		}
		core = append(core, tp.AddLink(x, y, rate, 500*units.Nanosecond))
	}
	host := func(leaf topo.NodeID, name string) {
		tp.AddLink(tp.AddNode(topo.Host, name), leaf, 10*units.Gbps, 500*units.Nanosecond)
	}
	if shape%2 == 0 {
		spineIDs := make([]topo.NodeID, int(a%4)+2)
		for s := range spineIDs {
			spineIDs[s] = tp.AddNode(topo.Spine, fmt.Sprintf("s%d", s))
		}
		for l := 0; l < int(b%4)+2; l++ {
			leaf := tp.AddNode(topo.Leaf, fmt.Sprintf("l%d", l))
			for _, sp := range spineIDs {
				link(leaf, sp)
			}
			host(leaf, fmt.Sprintf("h%d", l))
		}
	} else {
		half := 2 + int(a%2)
		cores := make([]topo.NodeID, half*half) // agg index g serves cores[g*half:(g+1)*half]
		for c := range cores {
			cores[c] = tp.AddNode(topo.Core, fmt.Sprintf("c%d", c))
		}
		for p := 0; p < 2*half; p++ {
			aggs := make([]topo.NodeID, half)
			for g := range aggs {
				aggs[g] = tp.AddNode(topo.Agg, fmt.Sprintf("p%d.a%d", p, g))
				for _, c := range cores[g*half : (g+1)*half] {
					link(aggs[g], c)
				}
			}
			for e := 0; e < half; e++ {
				edge := tp.AddNode(topo.Leaf, fmt.Sprintf("p%d.e%d", p, e))
				for _, ag := range aggs {
					link(edge, ag)
				}
				host(edge, fmt.Sprintf("p%d.e%d.h", p, e))
			}
		}
	}
	rng.Shuffle(len(core), func(i, j int) { core[i], core[j] = core[j], core[i] })
	fails := int(failsB) % (len(core)/2 + 1) // never fail a majority
	for i := 0; i < fails; i++ {
		tp.FailLink(core[i])
	}
	return tp
}

// pathKey serializes a channel sequence for multiset bookkeeping.
func pathKey(p []topo.ChanID) string {
	return fmt.Sprint(p)
}

// FuzzDecomposePartition checks the §3.4.1 decomposition invariants on
// random small (possibly asymmetric) leaf–spine and fat-tree topologies,
// and holds Build and Decompose to the reference: for every leaf pair, the
// components must exactly partition the shortest paths; paths inside a
// component must be pairwise symmetric while component representatives are
// pairwise asymmetric; each component's capacity must equal the sum of its
// paths' bottleneck capacities; and the weights must be the capacities
// scaled to coprime integers.
func FuzzDecomposePartition(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0))  // symmetric 2×3, no failures
	f.Add(int64(7), uint8(0), uint8(1), uint8(2), uint8(1), uint8(3))  // heterogeneous rates + failures
	f.Add(int64(42), uint8(0), uint8(3), uint8(0), uint8(0), uint8(5)) // symmetric rates, failures only
	f.Add(int64(-9), uint8(0), uint8(2), uint8(3), uint8(1), uint8(0)) // heterogeneous, intact
	f.Add(int64(3), uint8(1), uint8(0), uint8(0), uint8(1), uint8(0))  // k=4 fat-tree, heterogeneous, intact
	f.Add(int64(5), uint8(1), uint8(1), uint8(0), uint8(1), uint8(6))  // k=6 fat-tree, heterogeneous + failures
	f.Add(int64(8), uint8(1), uint8(0), uint8(0), uint8(0), uint8(3))  // k=4 fat-tree, symmetric rates, failures

	f.Fuzz(func(t *testing.T, seed int64, shape, a, b, hetero, fails uint8) {
		tp := fuzzTopo(seed, shape, a, b, hetero, fails)
		r := topo.ComputeRoutes(tp)
		q := Build(r)

		for _, src := range tp.Leaves {
			for _, dst := range tp.Leaves {
				if src == dst {
					continue
				}
				paths := r.Paths(src, dst)
				comps := q.Decompose(src, dst)
				if len(paths) == 0 {
					if comps != nil {
						t.Fatalf("%d→%d: no paths but %d components", src, dst, len(comps))
					}
					continue
				}
				checkDecomposition(t, q, tp, src, dst, paths, comps)
			}
		}
		checkAgainstReference(t, r)
	})
}

func checkDecomposition(t *testing.T, q *Quiver, tp *topo.Topology,
	src, dst topo.NodeID, paths [][]topo.ChanID, comps []Component) {
	t.Helper()
	if len(comps) == 0 {
		t.Fatalf("%d→%d: %d paths decomposed into zero components", src, dst, len(paths))
	}

	// Partition: every shortest path appears in exactly one component.
	want := map[string]int{}
	for _, p := range paths {
		want[pathKey(p)]++
	}
	got := map[string]int{}
	var totalCap units.Rate
	for ci, c := range comps {
		if len(c.Paths) == 0 {
			t.Fatalf("%d→%d: component %d is empty", src, dst, ci)
		}
		var ccap units.Rate
		firstHops := map[topo.ChanID]bool{}
		for _, p := range c.Paths {
			got[pathKey(p)]++
			ccap += tp.Bottleneck(p)
			firstHops[p[0]] = true
			if !q.Symmetric(c.Paths[0], p) {
				t.Fatalf("%d→%d: component %d holds asymmetric paths %v and %v",
					src, dst, ci, c.Paths[0], p)
			}
		}
		if ccap != c.Capacity {
			t.Fatalf("%d→%d: component %d capacity %v != sum of path bottlenecks %v",
				src, dst, ci, c.Capacity, ccap)
		}
		if len(c.FirstHops) != len(firstHops) {
			t.Fatalf("%d→%d: component %d reports %d first hops, paths use %d",
				src, dst, ci, len(c.FirstHops), len(firstHops))
		}
		for _, fh := range c.FirstHops {
			if !firstHops[fh] {
				t.Fatalf("%d→%d: component %d lists first hop %d no path starts with",
					src, dst, ci, fh)
			}
		}
		totalCap += c.Capacity
	}
	if len(got) != len(want) {
		t.Fatalf("%d→%d: components cover %d distinct paths, routing has %d",
			src, dst, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%d→%d: path %s appears %d times across components, want %d",
				src, dst, k, got[k], n)
		}
	}

	// Maximality: representatives of distinct components are asymmetric —
	// otherwise they should have been one component.
	for i := range comps {
		for j := i + 1; j < len(comps); j++ {
			if q.Symmetric(comps[i].Paths[0], comps[j].Paths[0]) {
				t.Fatalf("%d→%d: components %d and %d are mutually symmetric", src, dst, i, j)
			}
		}
	}

	// Weights: capacity divided by the gcd of all component capacities
	// (floored at 1), hence coprime whenever no flooring occurred.
	var g units.Rate
	for _, c := range comps {
		g = topo.GCD(g, c.Capacity)
	}
	if g == 0 {
		g = 1
	}
	var wg units.Rate
	for ci, c := range comps {
		want := c.Capacity / g
		if want == 0 {
			want = 1
		}
		if units.Rate(c.Weight) != want {
			t.Fatalf("%d→%d: component %d weight %d, want %v/%d = %d",
				src, dst, ci, c.Weight, c.Capacity, g, want)
		}
		wg = topo.GCD(wg, units.Rate(c.Weight))
	}
	if wg != 1 {
		t.Fatalf("%d→%d: component weights share common factor %d", src, dst, wg)
	}
}
