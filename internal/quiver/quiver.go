// Package quiver implements DRILL's control-plane handling of topological
// asymmetry (§3.4): it builds the labeled multidigraph the paper calls the
// Quiver, scores links by their label sets, and decomposes each switch's
// shortest paths toward each destination into symmetric components —
// maximal sets of paths with identical hop-by-hop label scores. The data
// plane then hashes flows to a component (weighted by aggregate capacity)
// and micro-load-balances only inside it, degrading gracefully from pure
// DRILL (one component) to ECMP (every component a single path).
package quiver

import (
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

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// NewCapFactor reduces in/out to lowest terms.
func NewCapFactor(in, out units.Rate) CapFactor {
	n, d := int64(in), int64(out)
	g := gcd(n, d)
	return CapFactor{n / g, d / g}
}

func (c CapFactor) String() string {
	if c.Den == 0 {
		return "inf"
	}
	return fmt.Sprintf("%d/%d", c.Num, c.Den)
}

// Label marks one use of a directed link: it lies on a shortest path from
// leaf Src to leaf Dst with the given capacity factor (§3.4.1, §3.4.3).
type Label struct {
	Src, Dst topo.NodeID
	CF       CapFactor
}

// Quiver is the labeled multidigraph: per directed channel, the set of
// labels of shortest leaf-to-leaf paths traversing it, plus the hash score
// used for fast path-symmetry checks. Both are dense, indexed by ChanID;
// each channel's labels are kept in the canonical (Src, Dst, CF) order.
type Quiver struct {
	routes *topo.Routes
	labels [][]Label
	scores []uint64
}

// Build computes the Quiver for the routing snapshot: for every ordered
// leaf pair and every shortest path between them, each traversed channel
// gains a (src, dst, cf) label.
func Build(r *topo.Routes) *Quiver {
	t := r.Topo()
	nchan := 2 * len(t.Links)
	q := &Quiver{
		routes: r,
		labels: make([][]Label, nchan),
		scores: make([]uint64, nchan),
	}
	// t.Leaves is in ascending NodeID order (nodes are numbered as they
	// are added), so pairs arrive in ascending (Src, Dst) order and each
	// channel's list stays canonical by settling only its tail.
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
					q.addLabel(cid, Label{Src: src, Dst: dst, CF: cf})
					if inCap == 0 || c.Rate < inCap {
						inCap = c.Rate
					}
				}
			}
		}
	}
	for c, labels := range q.labels {
		if len(labels) > 0 {
			q.scores[c] = score(labels)
		}
	}
	return q
}

// addLabel adds l to channel c's label set. Every label already on c has
// a (Src, Dst) pair no greater than l's, so l's place is inside the tail
// run of its own pair, ordered by CF.
func (q *Quiver) addLabel(c topo.ChanID, l Label) {
	labels := q.labels[c]
	i := len(labels)
	for i > 0 && labels[i-1].Src == l.Src && labels[i-1].Dst == l.Dst && cfLess(l.CF, labels[i-1].CF) {
		i--
	}
	if i > 0 && labels[i-1] == l {
		return
	}
	q.labels[c] = slices.Insert(labels, i, l)
}

// cfLess orders capacity factors by (Num, Den), as labels of one pair are
// ordered.
func cfLess(a, b CapFactor) bool {
	return a.Num < b.Num || a.Num == b.Num && a.Den < b.Den
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

// score hashes a canonically ordered label set to 64 bits with FNV-1a
// over each label's Src, Dst, CF.Num and CF.Den as little-endian int64s;
// equal scores ⇔ equal label sets (modulo hash collisions, which the
// 64-bit space makes negligible at datacenter scale).
func score(labels []Label) uint64 {
	h := uint64(fnvOffset64)
	for _, l := range labels {
		h = fnvPut(h, int64(l.Src))
		h = fnvPut(h, int64(l.Dst))
		h = fnvPut(h, l.CF.Num)
		h = fnvPut(h, l.CF.Den)
	}
	return h
}

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

// Labels returns a copy of the channel's label set, sorted lexicographically
// by (Src, Dst, CF), for inspection.
func (q *Quiver) Labels(c topo.ChanID) []Label {
	return append(make([]Label, 0, len(q.labels[c])), q.labels[c]...)
}

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
			comps[c].Capacity += pathCapacity(t, p)
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

func pathCapacity(t *topo.Topology, p []topo.ChanID) units.Rate {
	var capR units.Rate
	for _, cid := range p {
		r := t.Chan(cid).Rate
		if capR == 0 || r < capR {
			capR = r
		}
	}
	return capR
}

// assignWeights scales component capacities down to small integers with
// gcd 1, as a hardware WCMP-style table would store them.
func assignWeights(comps []Component) {
	var g int64
	for i := range comps {
		g = gcd(g, int64(comps[i].Capacity))
	}
	if g == 0 {
		g = 1
	}
	for i := range comps {
		comps[i].Weight = uint32(int64(comps[i].Capacity) / g)
		if comps[i].Weight == 0 {
			comps[i].Weight = 1
		}
	}
}
