package fabric

import (
	"drill/internal/topo"
	"drill/internal/trace"
)

// PacketHandler consumes packets delivered to a host; the transport layer
// implements it.
type PacketHandler interface {
	HandlePacket(h *Host, pkt *Packet)
}

// Host is an end host: a NIC queue into its leaf plus a packet handler.
type Host struct {
	net  *Network
	ID   topo.NodeID
	Leaf topo.NodeID
	NIC  *Port

	// dom is the shard domain owning this host's events, pool and stats;
	// it always matches the host's leaf (NewSharded enforces that).
	dom *domain

	// Handler receives packets addressed to this host.
	Handler PacketHandler
}

// Net returns the network the host is attached to.
func (h *Host) Net() *Network { return h.net }

// AllocPacket returns a zeroed packet from the host's domain pool. The
// transport layer fills it and hands it back via Send; the fabric recycles
// it at its terminal site (delivery or drop), which under sharding is
// always a pool of the same or another domain — pools never shrink, so
// cross-domain retirement only shifts where recycled packets come from,
// never correctness.
//
//drill:hotpath
func (h *Host) AllocPacket() *Packet { return h.dom.pool.Get() }

// Send stamps the addressing fields on pkt and queues it on the NIC.
// Src must be this host; Dst must be another host.
//
//drill:hotpath
func (h *Host) Send(pkt *Packet) {
	pkt.Src = h.ID
	pkt.SrcLeaf = h.Leaf
	pkt.DstLeaf = h.net.Topo.LeafOf(pkt.Dst)
	pkt.DstLeafIdx = int32(h.net.Topo.LeafIndex(pkt.DstLeaf))
	pkt.Hops = 0
	pkt.PathIdx = 0
	*h.dom.sent++
	if h.net.sendHook != nil {
		h.net.sendHook.OnSend(h.net, h, pkt)
	}
	if h.net.tracer != nil {
		h.net.tracer.Packet(trace.Send, h.dom.sim.Now(), h.NIC.Index, uint8(h.NIC.Hop), pkt.FlowID, pkt.Seq, int32(pkt.Size), h.NIC.QPkts)
	}
	h.net.enqueue(h.NIC, pkt)
}
