package quiver

import (
	"hash/fnv"
	"reflect"
	"slices"
	"sort"
	"testing"

	"drill/internal/topo"
	"drill/internal/units"
)

// Label marks one use of a directed link: it lies on a shortest path from
// leaf Src to leaf Dst with the given capacity factor (§3.4.1, §3.4.3).
type Label struct {
	Src, Dst topo.NodeID
	CF       CapFactor
}

// refQuiver is the reference Build and Decompose are held to: a map of
// label sets per channel, scored by sorting each set and hashing it with
// hash/fnv, over paths enumerated one slice per path, decomposed by
// grouping paths under string keys of their score vectors. It is the
// straightforward reading of §3.4.1, kept beside the score-only
// production code as its oracle. Topology.Bottleneck and assignWeights
// are shared.
type refQuiver struct {
	routes *topo.Routes
	labels map[topo.ChanID]map[Label]struct{}
	scores map[topo.ChanID]uint64
}

// refPaths enumerates every shortest path from src to leaf dst, each in
// its own slice, by a recursive walk over NextHops.
func refPaths(r *topo.Routes, src, dst topo.NodeID) [][]topo.ChanID {
	if src == dst {
		return [][]topo.ChanID{{}}
	}
	var out [][]topo.ChanID
	var walk func(at topo.NodeID, acc []topo.ChanID)
	walk = func(at topo.NodeID, acc []topo.ChanID) {
		if at == dst {
			path := make([]topo.ChanID, len(acc))
			copy(path, acc)
			out = append(out, path)
			return
		}
		for _, cid := range r.NextHops(at, dst) {
			walk(r.Topo().Chan(cid).To, append(acc, cid))
		}
	}
	walk(src, nil)
	return out
}

func buildReference(r *topo.Routes) *refQuiver {
	t := r.Topo()
	q := &refQuiver{
		routes: r,
		labels: map[topo.ChanID]map[Label]struct{}{},
		scores: map[topo.ChanID]uint64{},
	}
	for _, src := range t.Leaves {
		for _, dst := range t.Leaves {
			if src == dst {
				continue
			}
			for _, path := range refPaths(r, src, dst) {
				// Bottleneck capacity from src up to (but excluding) each hop.
				inCap := units.Rate(0) // 0 = no upstream yet (source vertex)
				for _, cid := range path {
					c := t.Chan(cid)
					cf := Infinity
					if inCap > 0 {
						cf = NewCapFactor(inCap, c.Rate)
					}
					q.addLabel(cid, Label{Src: src, Dst: dst, CF: cf})
					if inCap == 0 || c.Rate < inCap {
						inCap = c.Rate
					}
				}
			}
		}
	}
	q.computeScores()
	return q
}

func (q *refQuiver) addLabel(c topo.ChanID, l Label) {
	set := q.labels[c]
	if set == nil {
		set = map[Label]struct{}{}
		q.labels[c] = set
	}
	set[l] = struct{}{}
}

// computeScores hashes each channel's sorted label set to a 64-bit score.
func (q *refQuiver) computeScores() {
	for c, set := range q.labels {
		labels := make([]Label, 0, len(set))
		for l := range set {
			labels = append(labels, l)
		}
		sortLabels(labels)
		h := fnv.New64a()
		var buf [8]byte
		put := func(v int64) {
			for i := 0; i < 8; i++ {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		for _, l := range labels {
			put(int64(l.Src))
			put(int64(l.Dst))
			put(l.CF.Num)
			put(l.CF.Den)
		}
		q.scores[c] = h.Sum64()
	}
}

func (q *refQuiver) Score(c topo.ChanID) uint64 { return q.scores[c] }

func (q *refQuiver) Labels(c topo.ChanID) []Label {
	out := make([]Label, 0, len(q.labels[c]))
	for l := range q.labels[c] {
		out = append(out, l)
	}
	sortLabels(out)
	return out
}

// sortLabels orders labels lexicographically by (Src, Dst, CF).
func sortLabels(labels []Label) {
	sort.Slice(labels, func(i, j int) bool {
		a, b := labels[i], labels[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.CF.Num != b.CF.Num {
			return a.CF.Num < b.CF.Num
		}
		return a.CF.Den < b.CF.Den
	})
}

func (q *refQuiver) Decompose(src topo.NodeID, dst topo.NodeID) []Component {
	t := q.routes.Topo()
	paths := refPaths(q.routes, src, dst)
	if len(paths) == 0 || src == dst {
		return nil
	}
	// Group paths by score vector.
	byScore := map[string]*Component{}
	var order []string
	for _, p := range paths {
		key := make([]byte, 0, 8*len(p))
		for _, cid := range p {
			s := q.Score(cid)
			for i := 0; i < 8; i++ {
				key = append(key, byte(s>>(8*i)))
			}
		}
		k := string(key)
		comp := byScore[k]
		if comp == nil {
			comp = &Component{}
			byScore[k] = comp
			order = append(order, k)
		}
		comp.Paths = append(comp.Paths, p)
		comp.Capacity += t.Bottleneck(p)
	}
	comps := make([]Component, 0, len(byScore))
	for _, k := range order {
		c := byScore[k]
		c.FirstHops = distinctFirstHops(c.Paths)
		comps = append(comps, *c)
	}
	assignWeights(comps)
	return comps
}

func distinctFirstHops(paths [][]topo.ChanID) []topo.ChanID {
	seen := map[topo.ChanID]bool{}
	var out []topo.ChanID
	for _, p := range paths {
		if !seen[p[0]] {
			seen[p[0]] = true
			out = append(out, p[0])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkAgainstReference holds the routes' path enumeration, Build and
// Decompose to the reference: every channel's score, and for every
// switch × leaf the paths in order and the decomposition — component
// order, Paths, FirstHops, Capacity and Weight.
func checkAgainstReference(t *testing.T, r *topo.Routes) {
	t.Helper()
	tp := r.Topo()
	q, ref := Build(r), buildReference(r)
	for c := topo.ChanID(0); int(c) < 2*len(tp.Links); c++ {
		if got, want := q.Score(c), ref.Score(c); got != want {
			t.Fatalf("channel %d: score %#x, reference %#x", c, got, want)
		}
	}
	for _, nd := range tp.Nodes {
		if nd.Kind == topo.Host {
			continue
		}
		for _, leaf := range tp.Leaves {
			got, want := r.Paths(nd.ID, leaf), refPaths(r, nd.ID, leaf)
			if !slices.EqualFunc(got, want, slices.Equal[[]topo.ChanID]) {
				t.Fatalf("%d→%d: paths %v, reference %v", nd.ID, leaf, got, want)
			}
			if got, want := q.Decompose(nd.ID, leaf), ref.Decompose(nd.ID, leaf); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d→%d: components %+v, reference %+v", nd.ID, leaf, got, want)
			}
		}
	}
}

// TestMatchesReference runs the reference check over the paper's
// examples, a symmetric fat-tree, and the fuzz generator's shapes at
// fixed seeds: leaf–spine and 3-tier fat-trees, heterogeneous rates,
// failures.
func TestMatchesReference(t *testing.T) {
	tp, leaves, spines := fig4()
	tp.FailLink(tp.LinkBetween(leaves[0], spines[0])[0])
	tp.FailLink(tp.LinkBetween(leaves[2], spines[1])[0])
	checkAgainstReference(t, topo.ComputeRoutes(tp))
	checkAgainstReference(t, topo.ComputeRoutes(topo.Heterogeneous(topo.HeterogeneousConfig{
		Spines: 4, Leaves: 6, HostsPerLeaf: 1})))
	checkAgainstReference(t, fatTreeRoutes(4))
	for seed := int64(0); seed < 24; seed++ {
		for shape := uint8(0); shape < 2; shape++ {
			tp := fuzzTopo(seed, shape, uint8(seed), uint8(seed/2), uint8(seed/4), uint8(seed*5))
			checkAgainstReference(t, topo.ComputeRoutes(tp))
		}
	}
}
