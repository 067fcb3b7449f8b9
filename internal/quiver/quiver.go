// Package quiver implements DRILL's control-plane handling of topological
// asymmetry (§3.4): it builds the labeled multidigraph the paper calls the
// Quiver, scores links by their label sets (keeping the scores, not the
// sets), and decomposes each switch's shortest paths toward each
// destination into symmetric components — maximal sets of paths with
// identical hop-by-hop label scores. The data plane then hashes flows to
// a component (weighted by aggregate capacity) and micro-load-balances
// only inside it, degrading gracefully from pure DRILL (one component) to
// ECMP (every component a single path).
package quiver

import (
	"cmp"
	"fmt"
	"slices"

	"drill/internal/topo"
	"drill/internal/units"
)

// CapFactor is the capacity factor cf(a,b,p) of §3.4.3 as an exact reduced
// rational: the input rate of the path into a divided by the rate of (a,b).
// The source vertex uses the infinity sentinel {1, 0}.
type CapFactor struct {
	Num, Den int64
}

// Infinity is the capacity factor at the path's source vertex.
var Infinity = CapFactor{1, 0}

// NewCapFactor reduces in/out to lowest terms.
func NewCapFactor(in, out units.Rate) CapFactor {
	g := topo.GCD(in, out)
	return CapFactor{int64(in / g), int64(out / g)}
}

func (c CapFactor) String() string {
	if c.Den == 0 {
		return "inf"
	}
	return fmt.Sprintf("%d/%d", c.Num, c.Den)
}

// Quiver is the labeled multidigraph of §3.4.1, kept as what the
// symmetry check reads: one hash score per directed channel, dense by
// ChanID, over the (src, dst, cf) labels of the shortest leaf-to-leaf
// paths traversing it. The label sets themselves are never stored.
type Quiver struct {
	routes *topo.Routes
	scores []uint64
}

// Build computes the Quiver for the routing snapshot: for every ordered
// leaf pair and every shortest path between them, each traversed channel
// gains a (src, dst, cf) label, folded into the channel's score as soon
// as the pair's paths are walked.
//
// A score is FNV-1a 64 over the channel's label set in canonical (Src,
// Dst, CF) order, each label as four little-endian int64s: Src, Dst,
// CF.Num, CF.Den. Equal scores ⇔ equal label sets, modulo hash
// collisions, which the 64-bit space makes negligible at datacenter
// scale. A channel on no shortest path scores 0.
func Build(r *topo.Routes) *Quiver {
	t := r.Topo()
	nchan := 2 * len(t.Links)
	q := &Quiver{routes: r, scores: make([]uint64, nchan)}
	// t.Leaves is in ascending NodeID order (nodes are numbered as they
	// are added), so pairs arrive in ascending (Src, Dst) order and a
	// pair's labels follow every earlier pair's on each channel. Per
	// channel, cfs holds the pair in progress's capacity factors, sorted
	// by (Num, Den) and de-duplicated; two slots each from one array
	// cover a uniform fabric. touched lists the channels they are on.
	cfs := make([][]CapFactor, nchan)
	slots := make([]CapFactor, 2*nchan)
	for c := range cfs {
		cfs[c] = slots[2*c : 2*c : 2*c+2]
	}
	folded := make([]bool, nchan)
	var touched []topo.ChanID
	var buf []topo.ChanID
	for _, src := range t.Leaves {
		for _, dst := range t.Leaves {
			if src == dst {
				continue
			}
			buf = r.AppendPaths(buf[:0], src, dst)
			hops := r.Dist(src, dst)
			for p := 0; p < len(buf); p += hops {
				// Bottleneck capacity from src up to (but excluding) each hop.
				inCap := units.Rate(0) // 0 = no upstream yet (source vertex)
				for _, cid := range buf[p : p+hops] {
					c := t.Chan(cid)
					cf := Infinity
					if inCap > 0 {
						cf = NewCapFactor(inCap, c.Rate)
					}
					if len(cfs[cid]) == 0 {
						touched = append(touched, cid)
					}
					i, found := slices.BinarySearchFunc(cfs[cid], cf, func(a, b CapFactor) int {
						return cmp.Or(cmp.Compare(a.Num, b.Num), cmp.Compare(a.Den, b.Den))
					})
					if !found {
						cfs[cid] = slices.Insert(cfs[cid], i, cf)
					}
					if inCap == 0 || c.Rate < inCap {
						inCap = c.Rate
					}
				}
			}
			for _, cid := range touched {
				h := q.scores[cid]
				if !folded[cid] {
					h, folded[cid] = fnvOffset64, true
				}
				for _, cf := range cfs[cid] {
					h = fnvPut(h, int64(src))
					h = fnvPut(h, int64(dst))
					h = fnvPut(h, cf.Num)
					h = fnvPut(h, cf.Den)
				}
				q.scores[cid] = h
				cfs[cid] = cfs[cid][:0]
			}
			touched = touched[:0]
		}
	}
	return q
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64 to the k-th power (mod 2⁶⁴).
var fnvPrimePow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime64
	}
	return pow
}()

// fnvPut folds v's eight little-endian bytes into the FNV-1a state h. A
// zero byte only multiplies the state by the prime, so the high zero
// bytes of a small v fold into one multiplication by a power of it.
func fnvPut(h uint64, v int64) uint64 {
	u := uint64(v)
	n := 0
	for ; u != 0; n++ {
		h ^= u & 0xff
		h *= fnvPrime64
		u >>= 8
	}
	return h * fnvPrimePow[8-n]
}

// Score returns the label-set score of a channel (0 if the channel carries
// no shortest-path traffic).
func (q *Quiver) Score(c topo.ChanID) uint64 { return q.scores[c] }

// Symmetric reports whether two paths (channel sequences) are symmetric:
// same hop count with pairwise equal link scores (§3.4.1's definition).
func (q *Quiver) Symmetric(p1, p2 []topo.ChanID) bool {
	if len(p1) != len(p2) {
		return false
	}
	for i := range p1 {
		if q.Score(p1[i]) != q.Score(p2[i]) {
			return false
		}
	}
	return true
}

// Component is one symmetric path group from a switch toward a leaf.
type Component struct {
	Paths [][]topo.ChanID
	// FirstHops are the distinct first channels of the component's paths —
	// the ports the data plane micro-load-balances across.
	FirstHops []topo.ChanID
	// Capacity is the sum of the member paths' bottleneck capacities; the
	// data-plane weight is proportional to it.
	Capacity units.Rate
	// Weight is Capacity normalized across the decomposition's components
	// to small coprime integers.
	Weight uint32
}

// Decompose partitions the shortest paths from node src toward leaf dst
// into symmetric components and assigns capacity-proportional weights
// (§3.4.1 step 2). Components come in order of their first path, and each
// component's paths in enumeration order. It returns nil when src has no
// path to dst.
func (q *Quiver) Decompose(src topo.NodeID, dst topo.NodeID) []Component {
	if src == dst {
		return nil
	}
	buf := q.routes.AppendPaths(nil, src, dst)
	if len(buf) == 0 {
		return nil
	}
	hops := q.routes.Dist(src, dst)
	n := len(buf) / hops
	// comp[i] is path i's component; rep[c] is component c's first path,
	// which every later member must match score for score.
	scratch := make([]int32, 2*n)
	comp, rep := scratch[:n], scratch[n:n]
	for i := range comp {
		p := buf[i*hops : (i+1)*hops]
		c := 0
		for ; c < len(rep); c++ {
			if r := int(rep[c]) * hops; q.Symmetric(buf[r:r+hops], p) {
				break
			}
		}
		if c == len(rep) {
			rep = append(rep, int32(i))
		}
		comp[i] = int32(c)
	}
	// Every component's Paths and FirstHops are windows of one array each.
	t := q.routes.Topo()
	comps := make([]Component, len(rep))
	paths := make([][]topo.ChanID, 0, n)
	firstHops := make([]topo.ChanID, 0, n)
	for c := range comps {
		p0, f0 := len(paths), len(firstHops)
		for i, ci := range comp {
			if int(ci) != c {
				continue
			}
			p := buf[i*hops : (i+1)*hops : (i+1)*hops]
			paths = append(paths, p)
			comps[c].Capacity += t.Bottleneck(p)
			if !slices.Contains(firstHops[f0:], p[0]) {
				firstHops = append(firstHops, p[0])
			}
		}
		comps[c].Paths = paths[p0:len(paths):len(paths)]
		comps[c].FirstHops = firstHops[f0:len(firstHops):len(firstHops)]
		slices.Sort(comps[c].FirstHops)
	}
	assignWeights(comps)
	return comps
}

// assignWeights scales component capacities down to small integers with
// gcd 1, as a hardware WCMP-style table would store them.
func assignWeights(comps []Component) {
	var g units.Rate
	for i := range comps {
		g = topo.GCD(g, comps[i].Capacity)
	}
	for i := range comps {
		comps[i].Weight = topo.Weight(comps[i].Capacity, g)
	}
}
