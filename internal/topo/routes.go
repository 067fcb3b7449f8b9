package topo

import "math"

// Routes is the equal-cost shortest-path routing state for one topology
// snapshot (the output of the control plane's OSPF/ECMP computation, §3.2).
// It must be recomputed after link failures; the fabric models that
// recomputation delay explicitly.
//
// Every table is one flat array indexed by entry li*n + node, for leaf
// index li and n nodes, so the state costs a constant number of arrays
// whatever the fabric's size.
type Routes struct {
	topo *Topology
	n    int

	// dist[e] is the hop distance from the entry's node to its leaf,
	// counting switch-to-switch hops only (hosts are never transit).
	dist []int32

	// next[off[e]:off[e+1]] lists the directed channels at the entry's node
	// that lie on a shortest path toward its leaf, in ascending ChanID order.
	off  []int32
	next []ChanID

	// paths[e] is the number of shortest paths from the entry's node to its
	// leaf: 1 for the leaf itself (the empty path), 0 when unreachable.
	paths []int32
}

const unreachable = int32(math.MaxInt32)

// ComputeRoutes runs reverse BFS from every leaf over up links, excluding
// hosts as transit nodes, and records all equal-cost next hops and the
// number of shortest paths from every node. It allocates the same few
// arrays whatever the topology.
func ComputeRoutes(t *Topology) *Routes {
	n, nl := len(t.Nodes), len(t.Leaves)
	r := &Routes{
		topo:  t,
		n:     n,
		dist:  make([]int32, nl*n),
		off:   make([]int32, nl*n+1),
		paths: make([]int32, nl*n),
	}
	// Reverse adjacency in CSR form: in[inOff[v]:inOff[v+1]] lists the up
	// channels arriving at v, in link order.
	inOff := make([]int32, n+1)
	for _, l := range t.Links {
		if l.Up {
			inOff[l.A+1]++
			inOff[l.B+1]++
		}
	}
	for v := range n {
		inOff[v+1] += inOff[v]
	}
	in := make([]ChanID, inOff[n])
	fill := make([]int32, n+1) // per-node fill cursor, then the BFS queue
	copy(fill, inOff)
	for _, l := range t.Links {
		if l.Up {
			in[fill[l.B]] = ChanID(2 * l.ID) // A→B arrives at B
			fill[l.B]++
			in[fill[l.A]] = ChanID(2*l.ID + 1) // B→A arrives at A
			fill[l.A]++
		}
	}
	queue := fill[:0]

	// One BFS per leaf, in queue order, so a node's distance, next-hop
	// count and path count are final when it is dequeued: every channel
	// u→v arriving at a dequeued v with dist[u] = dist[v]+1 is one of u's
	// next hops, and carries v's paths to u. off[e+1] collects the counts.
	for li, leaf := range t.Leaves {
		row := li * n
		dist, paths := r.dist[row:row+n], r.paths[row:row+n]
		cnt := r.off[row+1 : row+n+1]
		for i := range dist {
			dist[i] = unreachable
		}
		dist[leaf], paths[leaf] = 0, 1
		queue = append(queue[:0], int32(leaf))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, cid := range in[inOff[v]:inOff[v+1]] {
				u := t.Chan(cid).From
				if t.Nodes[u].Kind == Host {
					continue // hosts do not forward transit traffic
				}
				if dist[u] == unreachable {
					dist[u] = dist[v] + 1
					queue = append(queue, int32(u))
				}
				if dist[u] == dist[v]+1 {
					cnt[u]++
					paths[u] += paths[v]
				}
			}
		}
	}
	for e := range nl * n {
		r.off[e+1] += r.off[e]
	}

	// Fill each entry's window in OutAll order, which is ascending ChanID.
	r.next = make([]ChanID, r.off[nl*n])
	for li := range t.Leaves {
		row := li * n
		dist := r.dist[row : row+n]
		for u := range n {
			w := r.off[row+u : row+u+2]
			if w[0] == w[1] {
				continue
			}
			k := w[0]
			for _, cid := range t.out[u] {
				to := t.Chan(cid).To
				if t.Links[cid/2].Up && dist[to] == dist[u]-1 && t.Nodes[to].Kind != Host {
					r.next[k] = cid
					k++
				}
			}
		}
	}
	return r
}

// Topo returns the topology this routing state was computed from.
func (r *Routes) Topo() *Topology { return r.topo }

// entry returns the flat index of (node, dstLeaf).
func (r *Routes) entry(node, dstLeaf NodeID) int {
	return r.topo.LeafIndex(dstLeaf)*r.n + int(node)
}

// Dist returns the shortest hop count from node to dstLeaf, or -1 if
// unreachable.
func (r *Routes) Dist(node, dstLeaf NodeID) int {
	d := r.dist[r.entry(node, dstLeaf)]
	if d == unreachable {
		return -1
	}
	return int(d)
}

// NextHops returns the directed channels at node lying on shortest paths
// toward dstLeaf, in ascending ChanID order. The returned slice is shared;
// callers must not mutate it.
func (r *Routes) NextHops(node, dstLeaf NodeID) []ChanID {
	e := r.entry(node, dstLeaf)
	lo, hi := r.off[e], r.off[e+1]
	return r.next[lo:hi:hi]
}

// Paths returns every shortest path from node src to leaf dst as channel
// sequences, in AppendPaths order; src == dst has the single empty path.
// Each path is a window of one shared buffer. It serves callers that keep
// paths (Presto's source routes, inspection tools); the Quiver and WCMP
// walk the flat AppendPaths buffer directly.
func (r *Routes) Paths(src, dst NodeID) [][]ChanID {
	if src == dst {
		return [][]ChanID{{}}
	}
	buf := r.AppendPaths(nil, src, dst)
	if len(buf) == 0 {
		return nil
	}
	hops := r.Dist(src, dst)
	out := make([][]ChanID, len(buf)/hops)
	for i := range out {
		out[i] = buf[i*hops : (i+1)*hops : (i+1)*hops]
	}
	return out
}

// AppendPaths appends every shortest path from node src to leaf dst to buf,
// back to back, each Dist(src, dst) channels long, and returns the extended
// buffer. Paths come in depth-first order over each node's NextHops, the
// order Paths returns. buf grows at most once, to the exact size the stored
// path count gives. Nothing is appended when dst is unreachable or src ==
// dst (whose one shortest path is empty). In Clos fabrics path counts are
// small (≤ spines for 2-stage, ≤ aggs×cores for 3-stage); the paths feed
// the Quiver's decomposition (§3.4.1), WCMP's weights and Presto's source
// routing.
func (r *Routes) AppendPaths(buf []ChanID, src, dst NodeID) []ChanID {
	e := r.entry(src, dst)
	hops := int(r.dist[e])
	if hops == 0 || r.dist[e] == unreachable {
		return buf
	}
	row := e - int(src)
	if n := int(r.paths[e]) * hops; cap(buf)-len(buf) < n {
		buf = append(make([]ChanID, 0, len(buf)+n), buf...)
	}
	return r.appendWalk(buf, row, src, len(buf), 0, hops)
}

// appendWalk extends the partial path buf[p:p+d], which ends at node at
// and is buf's tail, along every shortest continuation toward the leaf
// whose entries start at row. The first completed path reuses the prefix
// in place; each later one starts with a copy of it.
func (r *Routes) appendWalk(buf []ChanID, row int, at NodeID, p, d, hops int) []ChanID {
	e := row + int(at)
	for k, cid := range r.next[r.off[e]:r.off[e+1]] {
		q := p
		if k > 0 {
			q = len(buf)
			buf = append(buf, buf[p:p+d]...)
		}
		buf = append(buf, cid)
		if d+1 < hops {
			buf = r.appendWalk(buf, row, r.topo.Chan(cid).To, q, d+1, hops)
		}
	}
	return buf
}

// PathNodes converts a channel-sequence path to the node sequence it visits,
// starting with the source node.
func (r *Routes) PathNodes(src NodeID, path []ChanID) []NodeID {
	nodes := []NodeID{src}
	for _, cid := range path {
		nodes = append(nodes, r.topo.Chan(cid).To)
	}
	return nodes
}
