package experiments

import "testing"

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
