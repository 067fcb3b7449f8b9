package experiments

import (
	"testing"

	"drill/internal/fabric"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

// TestShardBarrierAllocFree pins the window protocol's steady-state
// allocation ceiling at zero: once outboxes, wire rings, event pools, and
// both domains' packet pools are warm, a cross-shard delivery — two
// boundary crossings and ~25 window barriers per operation — may not
// allocate at all. The barrier machinery (worker command channels,
// WaitGroup handoffs, outbox→ring exchange, arrival re-arms) must run
// entirely on reused storage; a single allocation per op here multiplies
// into millions over a scale run, so this is a ceiling, not a target.
func TestShardBarrierAllocFree(t *testing.T) {
	op, done := shardWindowOp()
	defer done()
	// Warm until everything reaches its steady exchange: retired packets
	// settle into the opposite domain's free list, and ring/outbox backing
	// arrays and each shard's wheel chunk pool reach their high-water size.
	for i := 0; i < 5000; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(500, op); allocs != 0 {
		t.Errorf("cross-shard send+window barrier path allocates %.2f/op at steady state, want 0", allocs)
	}
}

// TestSendDeliverAllocFree pins one packet's whole send→deliver path at
// zero allocations once the fabric is warm: the packet comes from the
// pool, every event the data plane schedules for it is a port event
// carrying an index, and its events land in wheel buckets the previous packets
// did not use, which take their chunks from the pool instead of growing
// an array of their own.
func TestSendDeliverAllocFree(t *testing.T) {
	send := sendDeliverOp()
	send() // warm queues, heap, wheel chunks, and pool
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Errorf("send→deliver allocates %.2f/op at steady state, want 0", allocs)
	}
}

// sendDeliverOp builds a two-host, one-leaf fabric and returns an
// operation that sends one pool packet host→leaf→host and runs the
// simulation until it is delivered and every event it caused has
// dispatched. Each op starts where the last one drained, so its events
// land in wheel buckets the previous op did not use.
func sendDeliverOp() func() {
	sc := MustScheme("ECMP")
	tp := topo.LeafSpine(topo.LeafSpineConfig{
		Spines: 1, Leaves: 1, HostsPerLeaf: 2,
		CoreRate: 10 * units.Gbps, HostRate: 10 * units.Gbps,
	})
	s := sim.New(1)
	net := fabric.New(s, tp, fabric.Config{Balancer: sc.New()})
	src, dst := net.Host(tp.Hosts[0]), tp.Hosts[1]
	return func() {
		pkt := src.AllocPacket()
		pkt.FlowID = 1
		pkt.Hash = 7
		pkt.Dst = dst
		pkt.Size = 1518 * units.Byte
		src.Send(pkt)
		s.Run()
	}
}

// shardWindowOp builds a minimal 2-shard fabric (two leaves with one host
// each, one spine) and returns an operation that sends one packet in each
// direction between the shards and runs the window protocol until both
// deliver — every op crosses the shard boundary twice and passes ~25
// barriers. Packets are sent pairwise so the domain pools exchange
// retired packets symmetrically and neither ever grows. The second return
// stops the shard workers.
func shardWindowOp() (op func(), done func()) {
	sc := MustScheme("ECMP")
	tp := topo.LeafSpine(topo.LeafSpineConfig{
		Spines: 1, Leaves: 2, HostsPerLeaf: 1,
		CoreRate: 10 * units.Gbps, HostRate: 10 * units.Gbps,
	})
	assign, nsh := tp.Partition(2)
	global := sim.New(1)
	shards := make([]*sim.Sim, nsh)
	for i := range shards {
		shards[i] = sim.New(1)
	}
	net := fabric.NewSharded(global, shards, assign, tp, fabric.Config{Balancer: sc.New()})
	group := &sim.ShardGroup{
		Global: global, Shards: shards,
		Lookahead: net.ShardLookahead(), Exchange: net.ExchangeShards,
	}
	group.Start()

	a, b := net.Host(tp.Hosts[0]), net.Host(tp.Hosts[1])
	send := func(src *fabric.Host, dst topo.NodeID) {
		pkt := src.AllocPacket()
		pkt.FlowID = 1
		pkt.Hash = 7
		pkt.Dst = dst
		pkt.Size = 1518 * units.Byte
		src.Send(pkt)
	}
	next := global.Now()
	op = func() {
		send(a, b.ID)
		send(b, a.ID)
		next += 5 * units.Microsecond
		group.RunUntil(next)
	}
	return op, group.Close
}
