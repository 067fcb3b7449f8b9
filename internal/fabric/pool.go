package fabric

// PacketPool is a single-threaded free list of *Packet. Every TCP segment
// and ACK used to be a fresh heap allocation; at the tens of millions of
// packets a single experiment point pushes through the fabric, that
// allocation (and the GC work to reclaim it) dominates the per-packet
// cost. The pool recycles packets at their terminal sites — delivery to a
// host handler, or any drop — so the steady-state data plane allocates
// only while the in-flight population is still growing.
//
// Invariants:
//
//   - Only packets obtained from Get are ever recycled. Hand-built packets
//     (tests, custom drivers that may retain delivered packets) pass
//     through Put untouched, so pooling is invisible to them.
//   - Put zeroes the entire packet before shelving it. Recycled packets
//     are indistinguishable from fresh ones: Path (a slice owned by the
//     balancer's path table), CONGA scratch, and the enqueue stamp
//     must not leak between packet lifetimes, or recycling would perturb
//     determinism. Hand-built packets are the fresh-allocation
//     reference that proves it doesn't: the same traffic sent through
//     AllocPacket and through &Packet{} delivers byte-identically.
//   - Double-recycling panics. A packet is in exactly one place (a queue,
//     the wire, or a terminal site); two Puts mean the data plane lost
//     track of ownership, which would silently corrupt a later flow.
//
// The pool is per-Network and the simulator is single-threaded, so there
// is no synchronization.
type PacketPool struct {
	free []*Packet

	// Gets / News / Puts count pool traffic: Gets - News is the number of
	// allocations the pool avoided.
	Gets int64
	News int64
	Puts int64
}

// Packet poolState values.
const (
	poolNone uint8 = iota // not pool-managed (hand-built)
	poolLive              // obtained from Get, not yet recycled
	poolIdle              // sitting in the free list
)

// Get returns a zeroed packet, recycling a shelved one when available.
//
//drill:hotpath
//drill:allocs 1 a pool miss allocates the packet; steady state recycles
func (pp *PacketPool) Get() *Packet {
	pp.Gets++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		p.poolState = poolLive
		return p
	}
	pp.News++
	return &Packet{poolState: poolLive}
}

// Put recycles a pool-managed packet, zeroing every field. Packets not
// obtained from Get are ignored, so terminal sites may call Put
// unconditionally.
//
//drill:hotpath
//drill:allocs 1 free-list growth amortizes to zero once the pool reaches its high-water mark
func (pp *PacketPool) Put(p *Packet) {
	switch p.poolState {
	case poolNone:
		return
	case poolIdle:
		panic("fabric: packet recycled twice")
	}
	*p = Packet{poolState: poolIdle}
	pp.Puts++
	pp.free = append(pp.free, p)
}

// Idle reports how many packets are shelved in the free list.
func (pp *PacketPool) Idle() int { return len(pp.free) }
