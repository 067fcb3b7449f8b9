package topo

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"drill/internal/units"
)

// refRoutes is the reference the flat Routes are held to: one distance
// array per leaf and one appended next-hop list per (leaf, node), filled
// by a plain reverse BFS, with paths enumerated one slice per path by a
// recursive walk. It is the straightforward reading of ComputeRoutes,
// kept beside the flat production code as its oracle.
type refRoutes struct {
	topo *Topology
	dist [][]int32
	next [][][]ChanID
}

func computeRefRoutes(t *Topology) *refRoutes {
	r := &refRoutes{topo: t}
	n := len(t.Nodes)
	r.dist = make([][]int32, len(t.Leaves))
	r.next = make([][][]ChanID, len(t.Leaves))
	// Reverse adjacency: channels arriving at each node.
	in := make([][]ChanID, n)
	for _, l := range t.Links {
		if !l.Up {
			continue
		}
		in[l.B] = append(in[l.B], ChanID(2*l.ID))   // A→B arrives at B
		in[l.A] = append(in[l.A], ChanID(2*l.ID+1)) // B→A arrives at A
	}
	for li, leaf := range t.Leaves {
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = unreachable
		}
		dist[leaf] = 0
		queue := []NodeID{leaf}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, cid := range in[v] {
				u := t.Chan(cid).From
				if t.Nodes[u].Kind == Host {
					continue // hosts do not forward transit traffic
				}
				if dist[u] == unreachable {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		next := make([][]ChanID, n)
		for u := 0; u < n; u++ {
			if dist[u] == unreachable || dist[u] == 0 {
				continue
			}
			for _, cid := range t.OutAll(NodeID(u)) {
				if !t.Links[cid/2].Up {
					continue
				}
				c := t.Chan(cid)
				if t.Nodes[c.To].Kind == Host {
					continue
				}
				if dist[c.To] == dist[u]-1 {
					next[u] = append(next[u], cid)
				}
			}
		}
		r.dist[li] = dist
		r.next[li] = next
	}
	return r
}

func (r *refRoutes) Dist(node, dstLeaf NodeID) int {
	d := r.dist[r.topo.LeafIndex(dstLeaf)][node]
	if d == unreachable {
		return -1
	}
	return int(d)
}

func (r *refRoutes) NextHops(node, dstLeaf NodeID) []ChanID {
	return r.next[r.topo.LeafIndex(dstLeaf)][node]
}

// Paths enumerates every shortest path depth-first over NextHops, each in
// its own slice; src == dst has the single empty path.
func (r *refRoutes) Paths(src, dst NodeID) [][]ChanID {
	if src == dst {
		return [][]ChanID{{}}
	}
	if r.Dist(src, dst) < 0 {
		return nil
	}
	var out [][]ChanID
	var walk func(at NodeID, acc []ChanID)
	walk = func(at NodeID, acc []ChanID) {
		if at == dst {
			out = append(out, slices.Clone(acc))
			return
		}
		for _, cid := range r.NextHops(at, dst) {
			walk(r.topo.Chan(cid).To, append(acc, cid))
		}
	}
	walk(src, nil)
	return out
}

// checkRoutes holds every (node, leaf) entry of ComputeRoutes(t) to the
// reference: distance, next hops in order, paths in order, the flat
// AppendPaths buffer and the stored path count.
func checkRoutes(t *testing.T, tp *Topology) {
	t.Helper()
	r, ref := ComputeRoutes(tp), computeRefRoutes(tp)
	for _, nd := range tp.Nodes {
		for _, leaf := range tp.Leaves {
			src := nd.ID
			if got, want := r.Dist(src, leaf), ref.Dist(src, leaf); got != want {
				t.Fatalf("%d→%d: dist %d, reference %d", src, leaf, got, want)
			}
			if got, want := r.NextHops(src, leaf), ref.NextHops(src, leaf); !slices.Equal(got, want) {
				t.Fatalf("%d→%d: next hops %v, reference %v", src, leaf, got, want)
			}
			want := ref.Paths(src, leaf)
			if got := r.Paths(src, leaf); !slices.EqualFunc(got, want, slices.Equal[[]ChanID]) {
				t.Fatalf("%d→%d: paths %v, reference %v", src, leaf, got, want)
			}
			if got := r.paths[r.entry(src, leaf)]; int(got) != len(want) {
				t.Fatalf("%d→%d: stored path count %d, reference enumerates %d", src, leaf, got, len(want))
			}
			// Onto a full one-entry prefix: the prefix stays, the paths
			// follow back to back, and the buffer grows once, to fit.
			flat := slices.Concat(want...)
			buf := r.AppendPaths([]ChanID{-1}, src, leaf)
			if buf[0] != -1 || !slices.Equal(buf[1:], flat) {
				t.Fatalf("%d→%d: AppendPaths %v, reference [-1] + %v", src, leaf, buf, flat)
			}
			if len(flat) > 0 && cap(buf) != len(buf) {
				t.Fatalf("%d→%d: AppendPaths grew to cap %d for %d channels", src, leaf, cap(buf), len(buf))
			}
		}
	}
}

// fuzzRoutesTopo builds a fabric of one of the shapes the simulator runs:
// a k-ary fat-tree with k ∈ {4, 6, 8}, a leaf–spine, the heterogeneous
// imbalanced-striping fabric or a VL2, then fails each link with probability
// fails/256, host links included. Everything derives from seed, so a
// crashing input reproduces.
func fuzzRoutesTopo(seed int64, shape, a, b, fails uint8) *Topology {
	var tp *Topology
	switch shape % 4 {
	case 0:
		tp = FatTree(FatTreeConfig{K: 4 + 2*int(a%3), LinkRate: 10 * units.Gbps})
	case 1:
		tp = LeafSpine(LeafSpineConfig{Spines: int(a%4) + 1, Leaves: int(b%6) + 2, HostsPerLeaf: 2})
	case 2:
		tp = Heterogeneous(HeterogeneousConfig{Spines: int(a%4) + 2, Leaves: int(b%6) + 2,
			HostsPerLeaf: 1, ExtraLinks: int(a/4%3) + 1})
	default:
		tp = VL2(VL2Config{ToRs: int(b%8) + 2, Aggs: int(a%4) + 2, Ints: int(a/4%3) + 1, HostsPerToR: 1})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, l := range tp.Links {
		if rng.Intn(256) < int(fails) {
			tp.FailLink(l.ID)
		}
	}
	return tp
}

// FuzzRoutesVsReference holds the flat routes to the reference on random
// fat-tree, leaf–spine, heterogeneous and VL2 fabrics with random links
// failed.
func FuzzRoutesVsReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0))   // k=4 fat-tree, intact
	f.Add(int64(2), uint8(0), uint8(1), uint8(0), uint8(20))  // k=6 fat-tree, a few failures
	f.Add(int64(3), uint8(0), uint8(2), uint8(0), uint8(60))  // k=8 fat-tree, many failures
	f.Add(int64(4), uint8(1), uint8(3), uint8(5), uint8(30))  // 4×7 leaf–spine, failures
	f.Add(int64(5), uint8(2), uint8(9), uint8(2), uint8(0))   // heterogeneous, parallel links
	f.Add(int64(6), uint8(2), uint8(2), uint8(4), uint8(100)) // heterogeneous, heavy failures
	f.Add(int64(7), uint8(3), uint8(6), uint8(6), uint8(0))   // VL2 8 ToRs, 4 aggs, 2 ints, intact
	f.Add(int64(8), uint8(3), uint8(5), uint8(3), uint8(40))  // VL2 5 ToRs, 3 aggs, 2 ints, failures
	f.Fuzz(func(t *testing.T, seed int64, shape, a, b, fails uint8) {
		checkRoutes(t, fuzzRoutesTopo(seed, shape, a, b, fails))
	})
}

// TestComputeRoutesAllocs: the flat routes cost the same few arrays on
// every fabric, whatever its leaf and node counts — none per leaf, node or
// next hop.
func TestComputeRoutesAllocs(t *testing.T) {
	var counts []float64
	for _, tp := range []*Topology{
		leafSpine224(),
		LeafSpine(LeafSpineConfig{Spines: 4, Leaves: 16, HostsPerLeaf: 20}),
		FatTree(FatTreeConfig{K: 4}),
		FatTree(FatTreeConfig{K: 8}),
		Heterogeneous(HeterogeneousConfig{Spines: 4, Leaves: 8, HostsPerLeaf: 2}),
	} {
		counts = append(counts, testing.AllocsPerRun(5, func() { sinkRoutes = ComputeRoutes(tp) }))
	}
	for _, c := range counts {
		if c != counts[0] || c > 8 {
			t.Fatalf("ComputeRoutes allocations per fabric: %v; want one count, at most 8", counts)
		}
	}
	t.Logf("%v allocations per fabric", counts)
}

// TestComputeRoutesBytes: the routes of a k=16 fat-tree hold rows for its
// 320 switches toward its 128 leaves and none for its 1,024 hosts. Beside
// the next hops themselves, ComputeRoutes allocates at most 16 bytes per
// (switch, leaf) entry: 12 for the entry's distance, path count and
// window offset, the rest for the adjacency. Rows for every node would
// cost 12 bytes per (node, leaf) entry, about 50 per (switch, leaf).
func TestComputeRoutesBytes(t *testing.T) {
	tp := FatTree(FatTreeConfig{K: 16})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := ComputeRoutes(tp)
	runtime.ReadMemStats(&after)
	entries := len(tp.Switches) * len(tp.Leaves)
	perEntry := float64(int(after.TotalAlloc-before.TotalAlloc)-4*len(r.next)) / float64(entries)
	if perEntry > 16 {
		t.Fatalf("ComputeRoutes allocates %.1f bytes per (switch, leaf) entry beside its %d next hops, want at most 16",
			perEntry, len(r.next))
	}
	t.Logf("%.1f bytes per (switch, leaf) entry beside the next hops", perEntry)
}

// BenchmarkComputeRoutes computes the routes of a k=12 fat-tree: 180
// switches toward 72 leaves.
func BenchmarkComputeRoutes(b *testing.B) {
	tp := FatTree(FatTreeConfig{K: 12})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRoutes = ComputeRoutes(tp)
	}
}

var sinkRoutes *Routes
