// Package fabric simulates the data plane the DRILL paper evaluates:
// output-queued switches with multiple parallel forwarding engines and
// imprecise (delayed-visibility) queue-occupancy counters, store-and-forward
// links, and host NICs. Load-balancing policies plug in via the Balancer
// interface; everything else — queueing, drops, per-hop telemetry, failure
// handling — is shared across policies so comparisons are apples-to-apples.
package fabric

import (
	"drill/internal/topo"
	"drill/internal/units"
)

// PacketKind distinguishes the two packet roles the transport layer uses.
type PacketKind uint8

// Packet kinds.
const (
	Data PacketKind = iota
	Ack
)

// Packet is the unit the fabric forwards. Fields beyond the addressing
// header are scratch space for the transport layer (Seq/AckNo/EchoTS), the
// load balancers (Hash/Path/CE), and the fabric itself (enqAt/Hops).
//
// Every field the fabric reads or writes per hop comes first and fits in
// the struct's first 64 bytes, and the whole struct in the allocator's
// 128-byte size class, so a hop touches one cache line of the packet
// (TestPacketLayout holds both).
type Packet struct {
	Size  units.ByteSize // bytes on the wire
	enqAt units.Time     // when the packet entered its current queue

	Path []topo.ChanID // source route (Presto); nil for hop-by-hop schemes

	Hash       uint32      // 5-tuple hash, fixed for the flow's lifetime
	DstLeafIdx int32       // dense index of DstLeaf for table lookups
	Dst        topo.NodeID // destination host
	DstLeaf    topo.NodeID
	PathIdx    int32

	// Hops counts fabric switches traversed, to catch forwarding loops.
	Hops int8
	Kind PacketKind

	// poolState tracks PacketPool membership; see pool.go. Packets built by
	// hand (tests, custom drivers) carry poolNone and are never recycled.
	poolState uint8

	CE uint8 // CONGA congestion-experienced metric

	FlowID  uint64
	Src     topo.NodeID // source host
	SrcLeaf topo.NodeID

	// Transport fields.
	Seq    int64      // first byte offset carried (Data) or being acked (Ack)
	AckNo  int64      // cumulative ack (Ack)
	EchoTS units.Time // send timestamp echoed by the receiver for RTT
	Len    int32      // payload bytes (Data)
	TxSeq  int32      // per-flow emission counter for wire-reorder metrics

	LBTag int16 // CONGA: source leaf's uplink choice, echoed in feedback
}

// HeaderBytes is the wire overhead added to every segment (Ethernet + IP +
// TCP headers, rounded to the customary 40-byte TCP/IP plus 18 Ethernet +
// preamble/IFG abstracted away).
const HeaderBytes = 58

// AckBytes is the wire size of a pure acknowledgment.
const AckBytes = 64

// MaxHops guards against routing loops; no Clos path in this repo exceeds it.
const MaxHops = 12
