// Package quiver implements DRILL's control-plane handling of topological
// asymmetry (§3.4): it builds the labeled multidigraph the paper calls the
// Quiver, scores links by their label sets (keeping the scores, not the
// sets), and decomposes each switch's shortest paths toward each
// destination into symmetric components — maximal sets of paths with
// identical hop-by-hop label scores. The data plane then hashes flows to
// a component (weighted by aggregate capacity) and micro-load-balances
// only inside it, degrading gracefully from pure DRILL (one component) to
// ECMP (every component a single path).
//
// Neither step lists paths. Build folds each leaf pair's labels into the
// scores over the pair's next-hop DAG, from capacity factors computed once
// per source leaf, and the decomposition builds each switch's components
// toward a leaf from those of its next hops, one pass per leaf from the
// leaf outward.
package quiver

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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
// A Quiver also stores its decomposition, which the first Decompose
// computes for every switch toward every leaf. Later calls only read it,
// so any number of goroutines may call Decompose.
type Quiver struct {
	routes *topo.Routes
	scores []uint64

	// The decomposition: entry li·ns + si, for leaf index li and switch
	// index si among ns switches, holds comps[ent[e].lo:ent[e].hi].
	once  sync.Once
	ent   []window
	comps []Component
}

// window is the half-open index range [lo, hi) of one array.
type window struct{ lo, hi int32 }

// Build computes the Quiver for the routing snapshot: for every ordered
// leaf pair, each channel on a shortest path between them gains one
// (src, dst, cf) label per distinct capacity factor the pair's paths give
// it, folded into the channel's score once the pair is done.
//
// The pair's paths are never enumerated, and the capacity factors are
// computed once per source. If u lies on a shortest src→dst path, every
// shortest src→u path extends to a shortest src→dst path: its length is
// dist(src, u), and a shortest u→dst path adds dist(u, dst). So the path
// prefixes reaching u on the way to any dst are exactly the shortest src→u
// paths, and the bottleneck rates b they carry into u are the same for
// every dst (src carries none). Per source, Build visits the switches in
// increasing distance from it and pulls each one's rates from its next
// hops toward src, whose reverses are the last hops of its shortest paths
// from src; each such channel w→u of rate c gets the factors b/c for each
// b at w, or ∞ at src, sorted by (Num, Den). A channel's labels for the
// pair (src, dst) are its factors when it lies on the pair's next-hop DAG:
// Build walks that DAG toward dst level by level from src and folds each
// channel's factors into its score.
//
// A score is FNV-1a 64 over the channel's label set in canonical (Src,
// Dst, CF) order, each label as four little-endian int64s: Src, Dst,
// CF.Num, CF.Den. Equal scores ⇔ equal label sets, modulo hash
// collisions, which the 64-bit space makes negligible at datacenter
// scale. A channel on no shortest path scores 0.
func Build(r *topo.Routes) *Quiver {
	t := r.Topo()
	nchan, ns := 2*len(t.Links), len(t.Switches)
	q := &Quiver{routes: r, scores: make([]uint64, nchan)}
	// Per channel: its head, its rate, whether its score has folded a
	// label, and the window of facs holding its capacity factors for the
	// source in progress.
	type channel struct {
		to     topo.NodeID
		folded bool
		facs   window
		rate   units.Rate
	}
	ch := make([]channel, nchan)
	for _, l := range t.Links {
		ch[2*l.ID] = channel{to: l.B, rate: l.Rate}
		ch[2*l.ID+1] = channel{to: l.A, rate: l.Rate}
	}
	// For the source in progress: each node's window of bottleneck rates
	// (0 = no upstream: the source itself), the channels' capacity factors
	// and the switches by distance from it. A uniform fabric fills rates
	// and facs without growing them. For the pair in progress: the DAG
	// walk's current and next levels, and which nodes the next one holds.
	type nodeState struct {
		reach window
		seen  int32 // the last pair whose walk reached the node
	}
	node := make([]nodeState, len(t.Nodes))
	rates := make([]units.Rate, 0, ns)
	facs := make([]CapFactor, 0, nchan)
	order, count := make([]topo.NodeID, ns), make([]int32, ns+2)
	levels := make([]topo.NodeID, 2*ns)
	pair := int32(0)
	// t.Leaves is in ascending NodeID order (nodes are numbered as they
	// are added), so pairs arrive in ascending (Src, Dst) order and a
	// pair's labels follow every earlier pair's on each channel.
	for _, src := range t.Leaves {
		order = byDist(r, src, order, count)
		rates, facs = rates[:0], facs[:0]
		for _, u := range order {
			lo := int32(len(rates))
			if u == src {
				rates = append(rates, 0)
			}
			for _, back := range r.NextHops(u, src) {
				w, c := ch[back].to, back^1 // c is the same link's w→u
				flo := int32(len(facs))
				for _, b := range rates[node[w].reach.lo:node[w].reach.hi] {
					cf, out := Infinity, ch[c].rate
					if b > 0 {
						cf, out = NewCapFactor(b, out), min(b, out)
					}
					facs = append(facs, cf)
					if !slices.Contains(rates[lo:], out) {
						rates = append(rates, out)
					}
				}
				slices.SortFunc(facs[flo:], compareCF)
				ch[c].facs = window{flo, int32(len(facs))}
			}
			node[u].reach = window{lo, int32(len(rates))}
		}
		for _, dst := range t.Leaves {
			hops := r.Dist(src, dst)
			if hops <= 0 {
				continue
			}
			pair++
			level, next := levels[:1:ns], levels[ns:ns]
			level[0] = src
			for d := 1; d <= hops; d++ {
				for _, u := range level {
					for _, c := range r.NextHops(u, dst) {
						h := q.scores[c]
						if !ch[c].folded {
							h, ch[c].folded = fnvOffset64, true
						}
						for _, cf := range facs[ch[c].facs.lo:ch[c].facs.hi] {
							h = fnvPut(h, int64(src))
							h = fnvPut(h, int64(dst))
							h = fnvPut(h, cf.Num)
							h = fnvPut(h, cf.Den)
						}
						q.scores[c] = h
						if v := ch[c].to; d < hops && node[v].seen != pair {
							node[v].seen = pair
							next = append(next, v)
						}
					}
				}
				level, next = next, level[:0]
			}
		}
	}
	return q
}

// compareCF orders capacity factors by (Num, Den), the order their labels
// fold in.
func compareCF(a, b CapFactor) int {
	return cmp.Or(cmp.Compare(a.Num, b.Num), cmp.Compare(a.Den, b.Den))
}

// byDist lists the switches that reach leaf in increasing distance to it,
// the leaf first, into order, and returns it resliced. order and count are
// scratch: order holds a slot per switch, count two more.
func byDist(r *topo.Routes, leaf topo.NodeID, order []topo.NodeID, count []int32) []topo.NodeID {
	// A counting sort: count each distance d into count[d+2], sum the
	// counts up, and then place each switch at its distance's cursor
	// count[d+1], which starts at d's first slot.
	sw := r.Topo().Switches
	count = count[:2]
	clear(count)
	for _, s := range sw {
		if d := r.Dist(s, leaf); d >= 0 {
			for len(count) < d+3 {
				count = append(count, 0)
			}
			count[d+2]++
		}
	}
	for i := 2; i < len(count); i++ {
		count[i] += count[i-1]
	}
	order = order[:count[len(count)-1]]
	for _, s := range sw {
		if d := r.Dist(s, leaf); d >= 0 {
			order[count[d+1]] = s
			count[d+1]++
		}
	}
	return order
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
	// FirstHops are the distinct first channels of the component's paths,
	// in ascending order — the ports the data plane micro-load-balances
	// across.
	FirstHops []topo.ChanID
	// Capacity is the sum of the member paths' bottleneck capacities; the
	// data-plane weight is proportional to it.
	Capacity units.Rate
	// Weight is Capacity normalized across the decomposition's components
	// to small coprime integers.
	Weight uint32
	// NumPaths is how many shortest paths the component holds.
	NumPaths int32
}

// Decompose returns the symmetric components of the shortest paths from
// node src toward leaf dst, with capacity-proportional weights (§3.4.1
// step 2): maximal sets of paths with identical hop-by-hop scores. They
// come in order of their first path in Routes.AppendPaths order. It
// returns nil when src is dst, a host, or has no path to dst.
//
// The result is a view of the decomposition the Quiver stores; callers
// must not modify it. The first call decomposes every switch toward every
// leaf; later calls only read.
func (q *Quiver) Decompose(src topo.NodeID, dst topo.NodeID) []Component {
	q.once.Do(q.decompose)
	t := q.routes.Topo()
	li, si := t.LeafIndex(dst), t.SwitchIndex(src)
	if si < 0 {
		return nil
	}
	w := q.ent[li*len(t.Switches)+si]
	if w.lo == w.hi {
		return nil
	}
	return q.comps[w.lo:w.hi:w.hi]
}

// decompose fills the stored decomposition with one pass per leaf over the
// switches in increasing distance to it, so every next hop's head is done
// before the switches that reach the leaf through it.
//
// The components at a node are the classes of its paths' score sequences.
// A path from u is a next hop c followed by a path from c's head v, so
// u's classes are the pairs (score(c), Y) for each class Y at v. They are
// interned in a trie of score sequences, grown from the leaf's one class,
// the empty path: equal sequences share one class ID across nodes. Taking
// the next hops in ascending ChanID order, and each head's classes in
// their own order, gives the classes in order of their first path in
// AppendPaths order. Each class carries its first hops and a histogram of
// its paths' bottlenecks (rate → count); the class (score(c), Y) takes
// Y's histogram with every rate r replaced by min(rate(c), r), which gives
// the component's Capacity (Σ rate × count) and its path count.
func (q *Quiver) decompose() {
	r := q.routes
	t := r.Topo()
	ns := len(t.Switches)
	// The routes' counts size the results: a symmetric fabric has one
	// component per entry with a next hop, whose first hops are those next
	// hops. A component whose first hops are all its switch's next hops
	// shares the routes' window of them; any other keeps a window of
	// firstHops. So a symmetric fabric never grows comps, and firstHops
	// only ever holds the switch in progress's.
	entries, widest := 0, 0
	for _, leaf := range t.Leaves {
		for _, s := range t.Switches {
			if n := len(r.NextHops(s, leaf)); n > 0 {
				entries, widest = entries+1, max(widest, n)
			}
		}
	}
	q.ent = make([]window, len(t.Leaves)*ns)
	q.comps = make([]Component, 0, entries)
	firstHops := make([]topo.ChanID, 0, widest)

	// Scratch for the leaf in progress, sized so that a symmetric fabric,
	// where each switch holds one class, never grows it: the trie of
	// classes, each switch's window of class records, the records, the
	// histograms they hold windows of, and the switch in progress's
	// (next hop, head's class, class) triples.
	type class struct {
		id    int32
		paths int32
		hist  window
	}
	type bin struct {
		rate  units.Rate
		count int32
	}
	type triple struct {
		c    topo.ChanID
		y, k int32
	}
	tr := make(trie, 1, ns+1)
	at := make([]window, ns)
	classes := make([]class, 0, ns)
	hist := make([]bin, 0, ns)
	triples := make([]triple, 0, widest)
	order, count := make([]topo.NodeID, ns), make([]int32, ns+2)
	turn := int32(0)
	for li, leaf := range t.Leaves {
		row := li * ns
		order = byDist(r, leaf, order, count)
		tr = tr[:1]
		tr[0] = trieNode{}
		classes = append(classes[:0], class{id: 0, paths: 1, hist: window{0, 1}})
		hist = append(hist[:0], bin{rate: 0, count: 1}) // the empty path: no bottleneck
		at[t.SwitchIndex(leaf)] = window{0, 1}
		for _, u := range order[1:] {
			// Intern u's classes in order of first appearance.
			turn++
			lo := int32(len(classes))
			triples = triples[:0]
			next := r.NextHops(u, leaf)
			for _, c := range next {
				hv := at[t.SwitchIndex(t.Chan(c).To)]
				for y := hv.lo; y < hv.hi; y++ {
					id := tr.child(classes[y].id, q.scores[c])
					if tr[id].turn != turn {
						tr[id].turn, tr[id].class = turn, int32(len(classes))
						classes = append(classes, class{id: id})
					}
					triples = append(triples, triple{c, y, tr[id].class})
				}
			}
			// Then fill each class's first hops, histogram and path count.
			base := int32(len(q.comps))
			for k := lo; k < int32(len(classes)); k++ {
				f0, h0 := len(firstHops), int32(len(hist))
				var paths int32
				for _, tp := range triples {
					if tp.k != k {
						continue
					}
					firstHops = append(firstHops, tp.c)
					paths += classes[tp.y].paths
					rate := t.Chan(tp.c).Rate
					for _, b := range hist[classes[tp.y].hist.lo:classes[tp.y].hist.hi] {
						if b.rate == 0 || rate < b.rate {
							b.rate = rate
						}
						i := h0
						for i < int32(len(hist)) && hist[i].rate != b.rate {
							i++
						}
						if i == int32(len(hist)) {
							hist = append(hist, bin{rate: b.rate})
						}
						hist[i].count += b.count
					}
				}
				classes[k].paths, classes[k].hist = paths, window{h0, int32(len(hist))}
				var capacity units.Rate
				for _, b := range hist[h0:] {
					capacity += b.rate * units.Rate(b.count)
				}
				fh := firstHops[f0:len(firstHops):len(firstHops)]
				if len(fh) == len(next) {
					fh, firstHops = next, firstHops[:f0]
				}
				q.comps = append(q.comps, Component{FirstHops: fh, Capacity: capacity, NumPaths: paths})
			}
			assignWeights(q.comps[base:])
			si := t.SwitchIndex(u)
			at[si] = window{lo, int32(len(classes))}
			q.ent[row+si] = window{base, int32(len(q.comps))}
		}
	}
}

// trie interns score sequences as class IDs: node 0 is the empty
// sequence, and each other node extends its parent's sequence by one score
// at the front, so equal sequences reach the same node.
type trie []trieNode

type trieNode struct {
	score       uint64 // the score prepended to the parent's sequence
	child, next int32  // first child and next sibling; 0 for none
	// class is this sequence's class record at the switch whose turn it
	// was, valid while turn is that switch's.
	class, turn int32
}

// child returns the node extending parent's sequence by score, adding it
// if it is new.
func (tr *trie) child(parent int32, score uint64) int32 {
	n := *tr
	for i := n[parent].child; i != 0; i = n[i].next {
		if n[i].score == score {
			return i
		}
	}
	i := int32(len(n))
	*tr = append(n, trieNode{score: score, next: n[parent].child})
	(*tr)[parent].child = i
	return i
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
