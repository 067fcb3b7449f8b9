package main

import (
	"math/rand"
	"runtime"
	"time"

	"drill/internal/core"
	"drill/internal/experiments"
	"drill/internal/fabric"
	"drill/internal/quiver"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
)

// runProbes times direct calls into each layer's public functions on the
// workload's own topology and configuration, one layer at a time.
func runProbes(cfg experiments.RunCfg) map[string]float64 {
	m := map[string]float64{}
	t := cfg.Topo()

	var routes *topo.Routes
	d, _ := timed(func() { routes = topo.ComputeRoutes(t) })
	m["topo.routes_s"] = d.Seconds()
	d, allocs := timed(func() {
		for _, src := range t.Leaves {
			for _, dst := range t.Leaves {
				if src != dst {
					routes.Paths(src, dst)
				}
			}
		}
	})
	m["topo.paths_s"], m["topo.paths_allocs"] = d.Seconds(), allocs

	var q *quiver.Quiver
	d, allocs = timed(func() { q = quiver.Build(routes) })
	m["quiver.build_s"], m["quiver.build_allocs"] = d.Seconds(), allocs
	d, allocs = timed(func() {
		for _, nd := range t.Nodes {
			if nd.Kind == topo.Host {
				continue
			}
			for _, leaf := range t.Leaves {
				if leaf != nd.ID {
					q.Decompose(nd.ID, leaf)
				}
			}
		}
	})
	m["quiver.decompose_s"], m["quiver.decompose_allocs"] = d.Seconds(), allocs

	// A DRILL(2,1) pick at the fan-out of a leaf's uplinks toward a far leaf.
	m["core.pick_ns"] = pickNs(len(routes.NextHops(t.Leaves[0], t.Leaves[len(t.Leaves)-1])))

	var net *fabric.Network
	heap := heapMB()
	d, allocs = timed(func() { net = newNetwork(cfg, t) })
	m["fabric.new_s"], m["fabric.new_allocs"], m["fabric.new_heap_mb"] = d.Seconds(), allocs, heapMB()-heap

	// The pod-failure campaign's links: every fabric link of the first two
	// leaves. BuildEpoch reads the topology's link state.
	for _, l := range t.Links {
		for _, leaf := range t.Leaves[:2] {
			if (l.A == leaf || l.B == leaf) && t.Nodes[l.A].Kind != topo.Host && t.Nodes[l.B].Kind != topo.Host {
				t.FailLink(l.ID)
			}
		}
	}
	var epoch *fabric.Epoch
	heap = heapMB()
	d, allocs = timed(func() { epoch = net.BuildEpoch() })
	m["fabric.epoch_build_s"], m["fabric.epoch_build_allocs"], m["fabric.epoch_heap_mb"] = d.Seconds(), allocs, heapMB()-heap
	runtime.KeepAlive(net)
	runtime.KeepAlive(epoch)

	m["fabric.hop_ns"], m["fabric.hop_allocs"] = hopProbe(cfg.Scheme)
	m["sim.near_ns"] = scheduleNs(100 * units.Nanosecond)
	m["sim.wheel_ns"] = scheduleNs(100 * units.Microsecond)
	m["sim.far_ns"] = scheduleNs(10 * units.Millisecond)
	m["sim.timer_ns"] = timerNs()
	m["shard.window_ns"] = shardWindowNs()
	m["transport.flow_ns_per_pkt"] = flowNsPerPkt(cfg.Scheme)
	return m
}

// timed runs fn once and reports its wall time and heap allocation count.
func timed(fn func()) (time.Duration, float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := now()
	fn()
	d := now().Sub(start)
	runtime.ReadMemStats(&after)
	return d, float64(after.Mallocs - before.Mallocs)
}

// perOp times n calls of op and returns nanoseconds and allocations per call.
func perOp(n int, op func()) (ns, allocs float64) {
	d, a := timed(func() {
		for i := 0; i < n; i++ {
			op()
		}
	})
	return float64(d.Nanoseconds()) / float64(n), a / float64(n)
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// newNetwork builds the workload's fabric as Run does: sequential, or
// partitioned into cfg.Shards domains.
func newNetwork(cfg experiments.RunCfg, t *topo.Topology) *fabric.Network {
	fcfg := fabric.Config{Balancer: cfg.Scheme.New(), QueueCap: cfg.QueueCap, RouteDelay: cfg.RouteDelay}
	global := sim.New(cfg.Seed)
	if cfg.Shards == 0 {
		return fabric.New(global, t, fcfg)
	}
	assign, n := t.Partition(cfg.Shards)
	shards := make([]*sim.Sim, n)
	for i := range shards {
		shards[i] = sim.New(cfg.Seed)
	}
	return fabric.NewSharded(global, shards, assign, t, fcfg)
}

// pickNs is the mean cost of one DRILL(2,1) pick among n queues.
func pickNs(n int) float64 {
	rng := rand.New(rand.NewSource(1))
	loads := make([]int64, max(n, 1))
	load := func(i int) int64 { return loads[i] }
	sel := core.NewSelector(2, 1, rng)
	i := 0
	ns, _ := perOp(1<<20, func() {
		loads[i%len(loads)] = int64(i * 7919 % 1500)
		i++
		sel.Pick(len(loads), load)
	})
	return ns
}

// twoHosts builds a one-leaf fabric with two hosts under sc's balancer.
func twoHosts(sc experiments.Scheme) (*sim.Sim, *fabric.Network, *topo.Topology) {
	tp := topo.LeafSpine(topo.LeafSpineConfig{
		Spines: 1, Leaves: 1, HostsPerLeaf: 2,
		CoreRate: 10 * units.Gbps, HostRate: 10 * units.Gbps,
	})
	s := sim.New(1)
	return s, fabric.New(s, tp, fabric.Config{Balancer: sc.New()}), tp
}

// hopProbe sends one pooled packet host→leaf→host across a warm two-host
// fabric and runs it to delivery.
func hopProbe(sc experiments.Scheme) (ns, allocs float64) {
	s, net, tp := twoHosts(sc)
	src, dst := net.Host(tp.Hosts[0]), tp.Hosts[1]
	send := func() {
		pkt := src.AllocPacket()
		pkt.FlowID, pkt.Hash, pkt.Dst, pkt.Size = 1, 7, dst, 1518*units.Byte
		src.Send(pkt)
		s.Run()
	}
	perOp(1000, send)
	return perOp(100_000, send)
}

// scheduleNs is the cost of scheduling one event d ahead and dispatching
// it; d picks the scheduler tier (near, wheel or far).
func scheduleNs(d units.Time) float64 {
	s := sim.New(1)
	fn := func() {}
	op := func() {
		s.After(d, fn)
		s.Run()
	}
	perOp(1000, op)
	ns, _ := perOp(100_000, op)
	return ns
}

// timerNs is the cost of one RTO-style Timer re-arm and disarm.
func timerNs() float64 {
	s := sim.New(1)
	tm := s.NewTimer(func() {})
	tm.Reset(units.Nanosecond)
	s.Run()
	ns, _ := perOp(1_000_000, func() {
		tm.Reset(5 * units.Nanosecond)
		tm.Stop()
	})
	return ns
}

// shardWindowNs is the cost of one cross-shard round trip: a packet each
// way between two single-host leaves on separate shards, delivered through
// the window protocol.
func shardWindowNs() float64 {
	tp := topo.LeafSpine(topo.LeafSpineConfig{
		Spines: 1, Leaves: 2, HostsPerLeaf: 1,
		CoreRate: 10 * units.Gbps, HostRate: 10 * units.Gbps,
	})
	assign, n := tp.Partition(2)
	global := sim.New(1)
	shards := make([]*sim.Sim, n)
	for i := range shards {
		shards[i] = sim.New(1)
	}
	net := fabric.NewSharded(global, shards, assign, tp, fabric.Config{Balancer: scheme("ECMP").New()})
	group := &sim.ShardGroup{Global: global, Shards: shards,
		Lookahead: net.ShardLookahead(), Exchange: net.ExchangeShards}
	group.Start()
	defer group.Close()
	a, b := net.Host(tp.Hosts[0]), net.Host(tp.Hosts[1])
	send := func(src *fabric.Host, dst topo.NodeID) {
		pkt := src.AllocPacket()
		pkt.FlowID, pkt.Hash, pkt.Dst, pkt.Size = 1, 7, dst, 1518*units.Byte
		src.Send(pkt)
	}
	next := global.Now()
	op := func() {
		send(a, b.ID)
		send(b, a.ID)
		next += 5 * units.Microsecond
		group.RunUntil(next)
	}
	// One wheel revolution (~4.2ms of sim time) of warm-up grows every
	// bucket before timing starts.
	perOp(1000, op)
	ns, _ := perOp(5000, op)
	return ns
}

// flowNsPerPkt is the cost per packet sent of whole 1MB TCP transfers
// between two hosts under one leaf, run to completion.
func flowNsPerPkt(sc experiments.Scheme) float64 {
	s, net, tp := twoHosts(sc)
	reg := transport.NewRegistry(s, net, transport.Config{ShimTimeout: sc.Shim})
	flow := func() {
		reg.StartFlow(tp.Hosts[0], tp.Hosts[1], 1_000_000, "")
		s.Run()
	}
	flow()
	sent := net.Sent
	d, _ := timed(func() {
		for i := 0; i < 20; i++ {
			flow()
		}
	})
	return float64(d.Nanoseconds()) / float64(max(net.Sent-sent, 1))
}
