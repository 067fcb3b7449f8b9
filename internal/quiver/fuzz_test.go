package quiver

import (
	"fmt"
	"math/rand"
	"testing"

	"drill/internal/topo"
	"drill/internal/units"
)

// fuzzTopo builds a small randomized fabric. By shape%4: a 2-tier
// leaf–spine with a%4+2 spines and b%4+2 leaves; a 3-tier k-ary fat-tree
// with k = 4 or 6 (by a), whose down-links toward a leaf carry several
// capacity factors per leaf pair once rates differ; the same leaf–spine
// with imbalanced striping, as topo.Heterogeneous builds it, where each
// leaf i has b/4%3+2 parallel links to spines i and i+1 (mod the spine
// count); or a VL2 of b%6+2 ToRs, each linked to two of a%4+2
// aggregation switches, which all link to a/4%3+1 intermediates. Fabric
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
	switch shape % 4 {
	case 0, 2:
		spineIDs := make([]topo.NodeID, int(a%4)+2)
		for s := range spineIDs {
			spineIDs[s] = tp.AddNode(topo.Spine, fmt.Sprintf("s%d", s))
		}
		for l := 0; l < int(b%4)+2; l++ {
			leaf := tp.AddNode(topo.Leaf, fmt.Sprintf("l%d", l))
			for s, sp := range spineIDs {
				n := 1
				if shape%4 == 2 && (s == l%len(spineIDs) || s == (l+1)%len(spineIDs)) {
					n = int(b/4%3) + 2
				}
				for range n {
					link(leaf, sp)
				}
			}
			host(leaf, fmt.Sprintf("h%d", l))
		}
	case 1:
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
	default:
		ints := make([]topo.NodeID, int(a/4%3)+1)
		for i := range ints {
			ints[i] = tp.AddNode(topo.Core, fmt.Sprintf("i%d", i))
		}
		aggs := make([]topo.NodeID, int(a%4)+2)
		for g := range aggs {
			aggs[g] = tp.AddNode(topo.Agg, fmt.Sprintf("a%d", g))
			for _, in := range ints {
				link(aggs[g], in)
			}
		}
		for r := 0; r < int(b%6)+2; r++ {
			tor := tp.AddNode(topo.Leaf, fmt.Sprintf("t%d", r))
			for k := 0; k < 2; k++ {
				link(tor, aggs[(2*r+k)%len(aggs)])
			}
			host(tor, fmt.Sprintf("t%d.h", r))
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
// random small (possibly asymmetric) leaf–spine, striped, fat-tree and VL2
// fabrics, and holds Build and Decompose to the reference: for every leaf
// pair, the reference's path groups must exactly partition the shortest
// paths; paths inside a group must be pairwise symmetric while groups'
// first paths are pairwise asymmetric; each component's capacity must
// equal the sum of its group's bottleneck capacities; and the weights must
// be the capacities scaled to coprime integers.
func FuzzDecomposePartition(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0))  // symmetric 2×3, no failures
	f.Add(int64(7), uint8(0), uint8(1), uint8(2), uint8(1), uint8(3))  // heterogeneous rates + failures
	f.Add(int64(42), uint8(0), uint8(3), uint8(0), uint8(0), uint8(5)) // symmetric rates, failures only
	f.Add(int64(-9), uint8(0), uint8(2), uint8(3), uint8(1), uint8(0)) // heterogeneous, intact
	f.Add(int64(3), uint8(1), uint8(0), uint8(0), uint8(1), uint8(0))  // k=4 fat-tree, heterogeneous, intact
	f.Add(int64(5), uint8(1), uint8(1), uint8(0), uint8(1), uint8(6))  // k=6 fat-tree, heterogeneous + failures
	f.Add(int64(8), uint8(1), uint8(0), uint8(0), uint8(0), uint8(3))  // k=4 fat-tree, symmetric rates, failures
	f.Add(int64(2), uint8(2), uint8(2), uint8(5), uint8(0), uint8(0))  // 4×3 striped, 3 parallel links, intact
	f.Add(int64(4), uint8(2), uint8(1), uint8(10), uint8(1), uint8(4)) // 3×4 striped, heterogeneous + failures
	f.Add(int64(6), uint8(3), uint8(6), uint8(6), uint8(0), uint8(0))  // VL2 8 ToRs, 4 aggs, 2 ints, intact
	f.Add(int64(9), uint8(3), uint8(5), uint8(3), uint8(1), uint8(3))  // VL2 5 ToRs, 3 aggs, 2 ints, heterogeneous + failures

	f.Fuzz(func(t *testing.T, seed int64, shape, a, b, hetero, fails uint8) {
		tp := fuzzTopo(seed, shape, a, b, hetero, fails)
		r := topo.ComputeRoutes(tp)
		q, ref := Build(r), buildReference(r)

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
				_, groups := ref.Decompose(src, dst)
				checkDecomposition(t, q, tp, src, dst, paths, comps, groups)
			}
		}
		checkAgainstReference(t, r)
	})
}

// checkDecomposition holds comps, the components from src toward dst, and
// groups, the reference's paths of each, to the decomposition's
// invariants over paths, every shortest path from src to dst.
func checkDecomposition(t *testing.T, q *Quiver, tp *topo.Topology,
	src, dst topo.NodeID, paths [][]topo.ChanID, comps []Component, groups [][][]topo.ChanID) {
	t.Helper()
	if len(comps) == 0 {
		t.Fatalf("%d→%d: %d paths decomposed into zero components", src, dst, len(paths))
	}
	if len(groups) != len(comps) {
		t.Fatalf("%d→%d: %d components, reference groups paths into %d", src, dst, len(comps), len(groups))
	}

	// Partition: every shortest path appears in exactly one group.
	want := map[string]int{}
	for _, p := range paths {
		want[pathKey(p)]++
	}
	got := map[string]int{}
	for ci, c := range comps {
		group := groups[ci]
		if len(group) == 0 {
			t.Fatalf("%d→%d: component %d is empty", src, dst, ci)
		}
		if int(c.NumPaths) != len(group) {
			t.Fatalf("%d→%d: component %d counts %d paths, its group holds %d", src, dst, ci, c.NumPaths, len(group))
		}
		var ccap units.Rate
		firstHops := map[topo.ChanID]bool{}
		for _, p := range group {
			got[pathKey(p)]++
			ccap += tp.Bottleneck(p)
			firstHops[p[0]] = true
			if !q.Symmetric(group[0], p) {
				t.Fatalf("%d→%d: component %d holds asymmetric paths %v and %v",
					src, dst, ci, group[0], p)
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

	// Maximality: first paths of distinct groups are asymmetric —
	// otherwise they should have been one component.
	for i := range groups {
		for j := i + 1; j < len(groups); j++ {
			if q.Symmetric(groups[i][0], groups[j][0]) {
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
