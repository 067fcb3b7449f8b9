package lb

import (
	"drill/internal/fabric"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

// CONGA (Alizadeh et al., SIGCOMM'14) is the globally load-aware baseline:
// source leaves route *flowlets* (bursts separated by an idle gap) onto the
// uplink minimizing the max of local and remote path congestion. Congestion
// is measured by per-port discounting rate estimators (DREs), carried to
// destination leaves in packet headers (CE, stamped hop by hop), and fed
// back to source leaves with a control-loop delay — the "few RTTs" loop
// the paper contrasts with DRILL's microsecond reactions.
//
// Simplifications kept mechanism-faithful: feedback is modelled as a
// delayed state update rather than piggybacked header plumbing, and in
// 3-stage fabrics only source leaves apply CONGA while interior switches
// use ECMP (matching the paper's footnote 5 for its VL2 experiment).
type CONGA struct {
	net    *fabric.Network
	dre    []float64 // per-port DRE accumulator
	quant  []uint8   // per-port quantized congestion (0..7)
	leaves map[topo.NodeID]*congaLeaf
}

type congaLeaf struct {
	uplinkIdx  map[int32]int16 // port → dense uplink index
	congToLeaf [][]uint8       // [dstLeafIdx][uplinkIdx] remote metric
	flowlets   map[uint64]*flowlet
}

type flowlet struct {
	port int32
	tag  int16
	last units.Time
}

// CONGA's paper-standard constants.
const (
	congaFlowletGap    = 500 * units.Microsecond // idle gap that opens a new flowlet
	congaDREInterval   = 50 * units.Microsecond  // DRE decay period
	congaDREAlpha      = 0.5                     // DRE decay factor
	congaFeedbackDelay = 10 * units.Microsecond  // leaf-to-leaf metric propagation delay
)

// NewCONGA returns CONGA with the paper-standard constants.
func NewCONGA() *CONGA { return &CONGA{} }

// Name implements fabric.Balancer.
func (c *CONGA) Name() string { return "CONGA" }

// ShardUnsafe marks CONGA as sequential-only: its leaf-to-leaf congestion
// feedback reads and ages DRE state across shard boundaries.
func (c *CONGA) ShardUnsafe() {}

// BuildTables implements fabric.TableBuilder: ECMP tables plus CONGA's
// per-leaf congestion state, rebuilt on reconvergence.
func (c *CONGA) BuildTables(net *fabric.Network) {
	net.BuildDefaultTables()
	c.net = net
	if c.dre == nil {
		c.dre = make([]float64, len(net.Ports))
		c.quant = make([]uint8, len(net.Ports))
		sim.NewTicker(net.Sim, congaDREInterval, func(units.Time) { c.decay() })
	}
	c.leaves = map[topo.NodeID]*congaLeaf{}
	for _, leaf := range net.Topo.Leaves {
		cl := &congaLeaf{
			uplinkIdx: map[int32]int16{},
			flowlets:  map[uint64]*flowlet{},
		}
		ups := net.LeafUplinks(leaf)
		for i, p := range ups {
			cl.uplinkIdx[p.Index] = int16(i)
		}
		cl.congToLeaf = make([][]uint8, len(net.Topo.Leaves))
		for i := range cl.congToLeaf {
			cl.congToLeaf[i] = make([]uint8, len(ups))
		}
		c.leaves[leaf] = cl
	}
}

// decay applies the DRE discount and refreshes the quantized metrics.
func (c *CONGA) decay() {
	for i := range c.dre {
		c.dre[i] *= 1 - congaDREAlpha
		c.quant[i] = c.quantize(int32(i))
	}
}

// quantize maps a DRE value to 3 bits against the port's rate-delay
// product (τ = interval/α, the estimator's time constant).
func (c *CONGA) quantize(port int32) uint8 {
	p := c.net.Ports[port]
	tau := float64(congaDREInterval) / congaDREAlpha
	capacityBytes := float64(p.Rate) / 8 * tau / float64(units.Second)
	if capacityBytes <= 0 {
		return 0
	}
	q := c.dre[port] / capacityBytes * 8
	if q > 7 {
		q = 7
	}
	return uint8(q)
}

// OnTx implements fabric.TxObserver: feed the DRE and stamp CE on data
// packets crossing fabric links.
func (c *CONGA) OnTx(net *fabric.Network, port *fabric.Port, pkt *fabric.Packet) {
	if net.Topo.Nodes[port.From].Kind == topo.Host || net.Topo.Nodes[port.To].Kind == topo.Host {
		return
	}
	c.dre[port.Index] += float64(pkt.Size)
	if pkt.Kind == fabric.Data {
		if q := c.quant[port.Index]; q > pkt.CE {
			pkt.CE = q
		}
	}
}

// OnArrive implements fabric.ArriveObserver: when data lands at its
// destination leaf, propagate the observed path congestion back to the
// source leaf's table after the feedback delay.
func (c *CONGA) OnArrive(net *fabric.Network, sw *fabric.Switch, pkt *fabric.Packet) {
	if pkt.Kind != fabric.Data || sw.Node != pkt.DstLeaf || pkt.SrcLeaf == pkt.DstLeaf {
		return
	}
	src := c.leaves[pkt.SrcLeaf]
	if src == nil || pkt.LBTag < 0 {
		return
	}
	dstIdx := pkt.DstLeafIdx
	tag := pkt.LBTag
	ce := pkt.CE
	net.Sim.After(congaFeedbackDelay, func() {
		if int(tag) < len(src.congToLeaf[dstIdx]) {
			src.congToLeaf[dstIdx][tag] = ce
		}
	})
}

// Choose implements fabric.Balancer.
func (c *CONGA) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	g := fabric.GroupForFlow(sw.Groups(pkt.DstLeafIdx), pkt.Hash)
	// CONGA decisions happen at the source leaf for data; everything else
	// (interior switches, ACKs) is ECMP.
	if sw.Node != pkt.SrcLeaf || sw.Kind != topo.Leaf || pkt.Kind != fabric.Data {
		return g.Ports[pkt.Hash%uint32(len(g.Ports))]
	}
	cl := c.leaves[sw.Node]
	now := net.Sim.Now()
	fl := cl.flowlets[pkt.FlowID]
	if fl != nil && now-fl.last < congaFlowletGap && net.Ports[fl.port].Up() {
		fl.last = now
		pkt.LBTag = fl.tag
		return fl.port
	}
	// New flowlet: pick the uplink minimizing max(local DRE, remote metric).
	best := int32(-1)
	var bestTag int16
	bestMetric := uint8(255)
	start := eng.Rng.Intn(len(g.Ports)) // random tie-break rotation
	for k := 0; k < len(g.Ports); k++ {
		port := g.Ports[(start+k)%len(g.Ports)]
		tag, ok := cl.uplinkIdx[port]
		if !ok {
			continue
		}
		m := c.quant[port]
		if int(tag) < len(cl.congToLeaf[pkt.DstLeafIdx]) {
			if r := cl.congToLeaf[pkt.DstLeafIdx][tag]; r > m {
				m = r
			}
		}
		if m < bestMetric {
			bestMetric = m
			best = port
			bestTag = tag
		}
	}
	if best < 0 {
		best = g.Ports[pkt.Hash%uint32(len(g.Ports))]
		bestTag = -1
	}
	if fl == nil {
		fl = &flowlet{}
		cl.flowlets[pkt.FlowID] = fl
	}
	fl.port, fl.tag, fl.last = best, bestTag, now
	pkt.LBTag = bestTag
	return best
}
