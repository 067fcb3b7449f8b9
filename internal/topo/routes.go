package topo

import "math"

// Routes is the equal-cost shortest-path routing state for one topology
// snapshot (the output of the control plane's OSPF/ECMP computation, §3.2).
// It must be recomputed after link failures; the fabric models that
// recomputation delay explicitly.
//
// Every table is one flat array indexed by entry li*ns + si, for leaf
// index li and switch index si (Topology.SwitchIndex) among ns switches,
// so the state costs a constant number of arrays whatever the fabric's
// size. Hosts never forward transit traffic and have no rows: every host
// maps to one shared last entry, which is unreachable, with no next hops
// and no paths.
type Routes struct {
	topo *Topology
	ns   int

	// dist[e] is the hop distance from the entry's switch to its leaf,
	// counting switch-to-switch hops only (hosts are never transit).
	dist []int32

	// next[off[e]:off[e+1]] lists the directed channels at the entry's
	// switch that lie on a shortest path toward its leaf, in ascending
	// ChanID order.
	off  []int32
	next []ChanID

	// paths[e] is the number of shortest paths from the entry's switch to
	// its leaf: 1 for the leaf itself (the empty path), 0 when unreachable.
	paths []int32
}

const unreachable = int32(math.MaxInt32)

// arc is an up channel between two switches in ComputeRoutes' adjacency:
// the channel leaving a switch and the switch index of its head.
type arc struct {
	c  ChanID
	to int32
}

// ComputeRoutes runs reverse BFS from every leaf over up links between
// switches (hosts are never transit) and records all equal-cost next hops
// and the number of shortest paths from every switch. It allocates the
// same few arrays whatever the topology.
func ComputeRoutes(t *Topology) *Routes {
	ns, nl := len(t.Switches), len(t.Leaves)
	m := nl * ns // entries; entry m is the hosts'
	rows := make([]int32, 2*(m+1))
	r := &Routes{
		topo:  t,
		ns:    ns,
		dist:  rows[: m+1 : m+1],
		paths: rows[m+1:],
		off:   make([]int32, m+2),
	}
	r.dist[m] = unreachable
	// Adjacency over switches in CSR form: adj[adjOff[v]:adjOff[v+1]] lists
	// the up channels from switch v to another switch, in link order, which
	// is ascending ChanID. A link is up in both directions or neither, so
	// the heads listed are also the switches with an up channel into v:
	// the reverse BFS reads the list as v's incoming channels.
	ix := t.index
	adjOff := make([]int32, 2*ns+1) // the offsets, then ns slots of scratch
	for _, l := range t.Links {
		if a, b := ix[l.A].sw, ix[l.B].sw; l.Up && a >= 0 && b >= 0 {
			adjOff[a+1]++
			adjOff[b+1]++
		}
	}
	for v := range ns {
		adjOff[v+1] += adjOff[v]
	}
	adj := make([]arc, adjOff[ns])
	fill := adjOff[ns+1:] // per-switch fill cursor, then the BFS queue
	copy(fill, adjOff[:ns])
	for _, l := range t.Links {
		if a, b := ix[l.A].sw, ix[l.B].sw; l.Up && a >= 0 && b >= 0 {
			adj[fill[a]] = arc{ChanID(2 * l.ID), b} // A→B leaves A
			fill[a]++
			adj[fill[b]] = arc{ChanID(2*l.ID + 1), a} // B→A leaves B
			fill[b]++
		}
	}
	adjOff = adjOff[:ns+1]
	queue := fill[:0]

	// One BFS per leaf, in queue order, so a switch's distance, next-hop
	// count and path count are final when it is dequeued: every up channel
	// u→v into a dequeued v with dist[u] = dist[v]+1 is one of u's next
	// hops, and carries v's paths to u. off[e+1] collects the counts.
	for li, leaf := range t.Leaves {
		row := li * ns
		dist, paths := r.dist[row:row+ns], r.paths[row:row+ns]
		cnt := r.off[row+1 : row+ns+1]
		for i := range dist {
			dist[i] = unreachable
		}
		s := ix[leaf].sw
		dist[s], paths[s] = 0, 1
		queue = append(queue[:0], s)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, a := range adj[adjOff[v]:adjOff[v+1]] {
				u := a.to
				if dist[u] == unreachable {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
				if dist[u] == dist[v]+1 {
					cnt[u]++
					paths[u] += paths[v]
				}
			}
		}
	}
	for e := range m + 1 {
		r.off[e+1] += r.off[e]
	}

	// Fill each switch's windows from its adjacency, in ascending ChanID.
	r.next = make([]ChanID, r.off[m])
	for li := range t.Leaves {
		row := li * ns
		dist := r.dist[row : row+ns]
		for u := range ns {
			k, end := r.off[row+u], r.off[row+u+1]
			if k == end {
				continue
			}
			for _, a := range adj[adjOff[u]:adjOff[u+1]] {
				if dist[a.to] == dist[u]-1 {
					r.next[k] = a.c
					k++
				}
			}
		}
	}
	return r
}

// Topo returns the topology this routing state was computed from.
func (r *Routes) Topo() *Topology { return r.topo }

// entry returns the flat index of (node, dstLeaf): the hosts' shared
// entry when node is a host.
func (r *Routes) entry(node, dstLeaf NodeID) int {
	li := r.topo.LeafIndex(dstLeaf)
	if si := r.topo.index[node].sw; si >= 0 {
		return li*r.ns + int(si)
	}
	return len(r.dist) - 1
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
// paths (Presto's source routes, inspection tools such as quiverdump);
// WCMP walks the flat AppendPaths buffer directly.
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
// WCMP's weights and Presto's source routing. The Quiver's decomposition
// (§3.4.1) needs none: it builds components from next hops.
func (r *Routes) AppendPaths(buf []ChanID, src, dst NodeID) []ChanID {
	e := r.entry(src, dst)
	hops := int(r.dist[e])
	if hops == 0 || r.dist[e] == unreachable {
		return buf
	}
	row := e - int(r.topo.index[src].sw)
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
	e := row + int(r.topo.index[at].sw)
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
