package topo

import "math"

// Routes is the equal-cost shortest-path routing state for one topology
// snapshot (the output of the control plane's OSPF/ECMP computation, §3.2).
// It must be recomputed after link failures; the fabric models that
// recomputation delay explicitly.
type Routes struct {
	topo *Topology

	// dist[leafIdx][node] is the hop distance from node to the leaf, counting
	// switch-to-switch hops only (hosts are never transit).
	dist [][]int32

	// next[leafIdx][node] lists the directed channels at node that lie on a
	// shortest path toward the leaf.
	next [][][]ChanID
}

const unreachable = int32(math.MaxInt32)

// ComputeRoutes runs reverse BFS from every leaf over up links, excluding
// hosts as transit nodes, and records all equal-cost next hops.
func ComputeRoutes(t *Topology) *Routes {
	r := &Routes{topo: t}
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
				c := t.Chan(cid)
				u := c.From
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

// Topo returns the topology this routing state was computed from.
func (r *Routes) Topo() *Topology { return r.topo }

// Dist returns the shortest hop count from node to dstLeaf, or -1 if
// unreachable.
func (r *Routes) Dist(node, dstLeaf NodeID) int {
	d := r.dist[r.topo.LeafIndex(dstLeaf)][node]
	if d == unreachable {
		return -1
	}
	return int(d)
}

// NextHops returns the directed channels at node lying on shortest paths
// toward dstLeaf. The returned slice is shared; callers must not mutate it.
func (r *Routes) NextHops(node, dstLeaf NodeID) []ChanID {
	return r.next[r.topo.LeafIndex(dstLeaf)][node]
}

// Paths returns every shortest path from node src to leaf dst as channel
// sequences, in AppendPaths order; src == dst has the single empty path.
// Each path is a window of one shared buffer. It serves callers that keep
// paths (Presto's source routes, WCMP's port weights, inspection tools);
// the Quiver walks the flat AppendPaths buffer directly.
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
// order Paths returns. buf grows at most once, to the exact size. Nothing
// is appended when dst is unreachable or src == dst (whose one shortest
// path is empty). In Clos fabrics path counts are small (≤ spines for
// 2-stage, ≤ aggs×cores for 3-stage); the paths feed the Quiver (§3.4.1)
// and Presto's source routing.
func (r *Routes) AppendPaths(buf []ChanID, src, dst NodeID) []ChanID {
	hops := r.Dist(src, dst)
	if hops <= 0 {
		return buf
	}
	next := r.next[r.topo.LeafIndex(dst)]
	if n := r.countPaths(next, src, hops) * hops; cap(buf)-len(buf) < n {
		buf = append(make([]ChanID, 0, len(buf)+n), buf...)
	}
	return r.appendWalk(buf, next, src, len(buf), 0, hops)
}

// countPaths counts the shortest paths from at, hops away from the
// destination whose next-hop table is next.
func (r *Routes) countPaths(next [][]ChanID, at NodeID, hops int) int {
	if hops == 1 {
		return len(next[at])
	}
	n := 0
	for _, cid := range next[at] {
		n += r.countPaths(next, r.topo.Chan(cid).To, hops-1)
	}
	return n
}

// appendWalk extends the partial path buf[p:p+d], which ends at node at
// and is buf's tail, along every shortest continuation. The first
// completed path reuses the prefix in place; each later one starts with a
// copy of it.
func (r *Routes) appendWalk(buf []ChanID, next [][]ChanID, at NodeID, p, d, hops int) []ChanID {
	for k, cid := range next[at] {
		q := p
		if k > 0 {
			q = len(buf)
			buf = append(buf, buf[p:p+d]...)
		}
		buf = append(buf, cid)
		if d+1 < hops {
			buf = r.appendWalk(buf, next, r.topo.Chan(cid).To, q, d+1, hops)
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
