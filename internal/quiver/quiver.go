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
//
// A Quiver also owns Decompose's scratch, so it serves one caller at a
// time: the table builder of one run's epoch.
type Quiver struct {
	routes *topo.Routes
	scores []uint64

	// Decompose's scratch, reused by every call: the flat path buffer, each
	// path's component and each component's first path, and the arrays the
	// returned components, their Paths and their FirstHops live in.
	buf       []topo.ChanID
	comp, rep []int32
	comps     []Component
	paths     [][]topo.ChanID
	firstHops []topo.ChanID
}

// Build computes the Quiver for the routing snapshot: for every ordered
// leaf pair, each channel on a shortest path between them gains one
// (src, dst, cf) label per distinct capacity factor the pair's paths give
// it, folded into the channel's score once the pair is done.
//
// The pair's paths are never enumerated. Build visits the next-hop DAG
// toward dst level by level from src, and carries to each node the
// distinct bottleneck rates b of the path prefixes reaching it (src
// carries none). A next hop u→v of rate c gains the factor b/c for each b
// at u, or ∞ at src, and passes min(b, c) on to v. Every next hop toward
// dst brings it one hop closer, so every prefix reaching u continues
// along every next hop of u to dst: the factors a channel gains are
// exactly those the enumerated paths give it.
//
// A score is FNV-1a 64 over the channel's label set in canonical (Src,
// Dst, CF) order, each label as four little-endian int64s: Src, Dst,
// CF.Num, CF.Den. Equal scores ⇔ equal label sets, modulo hash
// collisions, which the 64-bit space makes negligible at datacenter
// scale. A channel on no shortest path scores 0.
func Build(r *topo.Routes) *Quiver {
	t := r.Topo()
	nchan, n := 2*len(t.Links), len(t.Nodes)
	q := &Quiver{routes: r, scores: make([]uint64, nchan)}
	// Each channel's head and rate, read once.
	to := make([]topo.NodeID, nchan)
	rate := make([]units.Rate, nchan)
	for _, l := range t.Links {
		to[2*l.ID], to[2*l.ID+1] = l.B, l.A
		rate[2*l.ID], rate[2*l.ID+1] = l.Rate, l.Rate
	}
	// t.Leaves is in ascending NodeID order (nodes are numbered as they
	// are added), so pairs arrive in ascending (Src, Dst) order and a
	// pair's labels follow every earlier pair's on each channel. Per
	// channel, cfs holds the pair in progress's capacity factors, sorted
	// by (Num, Den) and de-duplicated; touched lists the channels they
	// are on. Per node, rates holds the pair in progress's bottleneck
	// rates, valid while seen marks the node as reached by that pair.
	// Two slots each from one array cover a uniform fabric.
	cfs := make([][]CapFactor, nchan)
	cfSlots := make([]CapFactor, 2*nchan)
	for c := range cfs {
		cfs[c] = cfSlots[2*c : 2*c : 2*c+2]
	}
	rates := make([][]units.Rate, n)
	rateSlots := make([]units.Rate, 2*n)
	for v := range rates {
		rates[v] = rateSlots[2*v : 2*v : 2*v+2]
	}
	seen := make([]int32, n)
	folded := make([]bool, nchan)
	levels := make([]topo.NodeID, 2*n)
	touched := make([]topo.ChanID, 0, nchan)
	pair := int32(0)
	for _, src := range t.Leaves {
		for _, dst := range t.Leaves {
			hops := r.Dist(src, dst)
			if hops <= 0 {
				continue
			}
			pair++
			level, next := levels[:1:n], levels[n:n]
			level[0] = src
			rates[src] = append(rates[src][:0], 0) // 0 = no upstream yet (source vertex)
			for d := 1; d <= hops; d++ {
				for _, u := range level {
					for _, cid := range r.NextHops(u, dst) {
						c, v := rate[cid], to[cid]
						if len(cfs[cid]) == 0 {
							touched = append(touched, cid)
						}
						if d < hops && seen[v] != pair {
							seen[v] = pair
							rates[v] = rates[v][:0]
							next = append(next, v)
						}
						for _, b := range rates[u] {
							cf, out := Infinity, c
							if b > 0 {
								cf, out = NewCapFactor(b, c), min(b, c)
							}
							i, found := slices.BinarySearchFunc(cfs[cid], cf, func(a, b CapFactor) int {
								return cmp.Or(cmp.Compare(a.Num, b.Num), cmp.Compare(a.Den, b.Den))
							})
							if !found {
								cfs[cid] = slices.Insert(cfs[cid], i, cf)
							}
							if d < hops && !slices.Contains(rates[v], out) {
								rates[v] = append(rates[v], out)
							}
						}
					}
				}
				level, next = next, level[:0]
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
//
// The result lives in the Quiver's scratch: it is valid until the next
// Decompose on this Quiver, so a caller that keeps anything copies it. Once
// the scratch has grown to the largest decomposition, a call allocates
// nothing.
func (q *Quiver) Decompose(src topo.NodeID, dst topo.NodeID) []Component {
	if src == dst {
		return nil
	}
	q.buf = q.routes.AppendPaths(q.buf[:0], src, dst)
	buf := q.buf
	if len(buf) == 0 {
		return nil
	}
	hops := q.routes.Dist(src, dst)
	n := len(buf) / hops
	// comp[i] is path i's component; rep[c] is component c's first path,
	// which every later member must match score for score.
	comp, rep := slices.Grow(q.comp[:0], n)[:n], q.rep[:0]
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
	comps := slices.Grow(q.comps[:0], len(rep))[:len(rep)]
	clear(comps)
	paths := slices.Grow(q.paths[:0], n)
	firstHops := slices.Grow(q.firstHops[:0], n)
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
	q.comp, q.rep, q.comps, q.paths, q.firstHops = comp, rep, comps, paths, firstHops
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
