// Package transport implements the end-host stack the evaluation runs over
// the fabric: TCP NewReno senders and receivers (slow start, congestion
// avoidance, triple-duplicate-ACK fast retransmit/recovery, RTO with
// SRTT/RTTVAR estimation), flow-completion-time accounting, duplicate-ACK
// accounting for the Fig. 11(a) reordering analysis, and the optional
// fixed-hold receiver reordering shim and GRO batching model from
// internal/gro.
//
// The paper ports Linux 2.6 TCP via the Network Simulation Cradle; NewReno
// reproduces the behaviours the evaluation depends on — the 3-dup-ACK
// retransmission threshold that reordering falsely triggers, and the
// window collapse that follows.
package transport

import (
	"fmt"
	"sort"

	"drill/internal/fabric"
	"drill/internal/metrics"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// Config parameterizes the host stacks of one experiment.
type Config struct {
	// ShimTimeout > 0 enables the receiver reordering shim with that hold
	// timeout ("DRILL" vs "DRILL w/o shim", Presto's shim).
	ShimTimeout units.Time

	// TrackGRO enables GRO batch accounting.
	TrackGRO bool
}

// Stats aggregates transport-level measurements across all hosts.
type Stats struct {
	// FCT collects completion times in milliseconds, overall and per class.
	FCT        metrics.Dist
	FCTByClass map[string]*metrics.Dist

	// DupAcks histograms duplicate ACKs generated per completed flow.
	DupAcks metrics.IntHist

	// WireReorders histograms emission-order inversions observed on the
	// wire per completed flow (reordering proper, untangled from TCP's
	// duplicate-ACK amplification).
	WireReorders metrics.IntHist

	// GROBatches / GROSegments accumulate batching telemetry.
	GROBatches  int64
	GROSegments int64

	Retransmits   int64
	Timeouts      int64
	FlowsStarted  int64
	FlowsFinished int64

	// OutOfOrder counts data packets that arrived below the highest
	// emission counter seen — the per-arrival total behind the per-flow
	// WireReorders histogram, and the transport-health number FCT sweep
	// reports surface.
	OutOfOrder int64
}

// ClassDist returns (creating if needed) the FCT distribution for a class.
func (s *Stats) ClassDist(class string) *metrics.Dist {
	if s.FCTByClass == nil {
		s.FCTByClass = map[string]*metrics.Dist{}
	}
	d := s.FCTByClass[class]
	if d == nil {
		d = &metrics.Dist{}
		s.FCTByClass[class] = d
	}
	return d
}

// Registry owns the per-host agents of one network and starts flows.
type Registry struct {
	Sim   *sim.Sim
	Net   *fabric.Network
	Cfg   Config
	Stats Stats

	// shardStats holds one Stats block per shard domain under the sharded
	// engine; agents accumulate into their shard's block and Fold merges
	// them into Stats after the run. Nil (and unused) sequentially, where
	// agents write Stats directly.
	shardStats []Stats

	agents []*Agent // by host node ID; nil for switches

	// pools holds one flowPool per shard domain (one sequentially); each
	// agent draws from and returns to its own domain's.
	pools []flowPool

	// senders and receivers hold each flow's endpoints by flow ID, which
	// StartFlow hands out densely from 1. StartFlow grows both at a
	// barrier; during a window a slot is written only by its endpoint's
	// own shard: the source host's when its sender finishes, the
	// destination host's when a receiver opens or closes. A slot is
	// cleared when its endpoint is done, so no finished flow stays
	// reachable from the registry.
	senders   []*Sender
	receivers []*Receiver
	nextFlow  uint64

	tracer *trace.Tracer // the network's tracer, nil when tracing is off
	met    *Metrics      // histogram observations, nil when metrics are off

	// MeasureFrom: flows started before this time are warm-up and excluded
	// from Stats (they still load the network).
	MeasureFrom units.Time

	// OnComplete, when set, is invoked for every finished flow.
	OnComplete func(f *Sender)
}

// NewRegistry attaches a transport agent to every host in the network.
func NewRegistry(s *sim.Sim, net *fabric.Network, cfg Config) *Registry {
	r := &Registry{Sim: s, Net: net, Cfg: cfg, agents: make([]*Agent, len(net.Topo.Nodes)),
		pools:   make([]flowPool, net.NumDomains()),
		senders: make([]*Sender, 1), receivers: make([]*Receiver, 1), tracer: net.Tracer()}
	if net.Sharded() {
		r.shardStats = make([]Stats, net.NumDomains())
	}
	for _, h := range net.Topo.Hosts {
		host := net.Host(h)
		a := &Agent{reg: r, host: host, sim: net.DomainSim(h), stats: &r.Stats,
			pool: &r.pools[net.DomainIndex(h)]}
		if net.Sharded() {
			a.stats = &r.shardStats[net.DomainIndex(h)]
		}
		host.Handler = a
		r.agents[h] = a
	}
	return r
}

// Agent is the per-host transport endpoint; it demultiplexes delivered
// packets to flow senders (ACKs) and receivers (data). Its sim, stats and
// pool belong to the host's shard domain: every timer a flow arms, every
// clock it reads, every counter it bumps and every pooled object it reuses
// stays inside one shard, which is what lets shards run their windows
// concurrently. Sequentially the sim and stats simply alias the
// registry's Sim and Stats.
type Agent struct {
	reg   *Registry
	host  *fabric.Host
	sim   *sim.Sim
	stats *Stats
	pool  *flowPool
}

// HandlePacket implements fabric.PacketHandler. It finds the flow's
// endpoint by flow ID; packets of flows this registry did not start are
// ignored.
func (a *Agent) HandlePacket(h *fabric.Host, pkt *fabric.Packet) {
	r, id := a.reg, pkt.FlowID
	if id >= uint64(len(r.senders)) {
		return
	}
	switch pkt.Kind {
	case fabric.Ack:
		if s := r.senders[id]; s != nil {
			s.onAck(pkt)
		}
	case fabric.Data:
		rcv := r.receivers[id]
		if rcv == nil {
			// A closed flow's late segment lands here too, and opens a
			// receiver at rcvNxt 0 (ROADMAP item 2).
			rcv = a.pool.receiver(a, pkt)
			r.receivers[id] = rcv
		}
		rcv.onData(pkt)
		if rcv.closed {
			// This delivery closed the receiver, and has returned.
			a.pool.putReceiver(rcv)
		}
	}
}

// StartFlow begins a TCP transfer of size bytes from src to dst. Class tags
// the flow for per-class FCT reporting ("", "mice", "elephant", "incast").
// Infinite flows (size < 0) never finish; their throughput is read via
// Sender.AckedBytes. The returned handle stays valid for the whole run:
// a finished flow's timer goes back to a pool, its Sender never does.
func (r *Registry) StartFlow(src, dst topo.NodeID, size int64, class string) *Sender {
	if src == dst {
		panic("transport: flow to self")
	}
	r.nextFlow++
	r.Stats.FlowsStarted++
	id := r.nextFlow
	a := r.agents[src]
	s := &Sender{
		reg: r, agent: a, id: id, dst: dst,
		size: size, class: class,
		hash:     flowHash(id, src, dst),
		cwnd:     initCwnd,
		ssthresh: 1 << 30,
		rto:      initRTO,
		start:    r.Sim.Now(),
		measured: r.Sim.Now() >= r.MeasureFrom,
	}
	// The flow's one RTO timer, taken from the source host's shard pool
	// (or allocated once) and re-armed in place for the flow's whole
	// lifetime. It lives in the source host's scheduler so retransmission
	// timeouts fire inside the host's shard.
	s.rtoTimer = a.pool.timer(a.sim, s)
	r.senders = append(r.senders, s)
	r.receivers = append(r.receivers, nil)
	s.trySend()
	return s
}

// flowHash mixes the flow 5-tuple stand-ins into the hash ECMP et al. use.
func flowHash(id uint64, src, dst topo.NodeID) uint32 {
	h := uint64(2166136261)
	for _, x := range [3]uint64{id, uint64(src), uint64(dst)} {
		h ^= x
		h *= 16777619
		h ^= h >> 17
	}
	h *= 0x9e3779b1
	return uint32(h>>32) ^ uint32(h)
}

// Fold merges the per-shard stat blocks into r.Stats, in shard-ID order.
// Every merged quantity is either an integer total or a sample multiset
// (Dist, IntHist), so the folded result carries the same counts, order
// statistics, and sorted-sample hashes as a sequential run — only
// insertion order (and therefore nothing a fingerprint reads) differs.
// Call once after the run drains; a no-op sequentially. FlowsStarted is
// not folded: StartFlow runs in barrier context and counts it on r.Stats
// directly.
func (r *Registry) Fold() {
	for i := range r.shardStats {
		ss := &r.shardStats[i]
		r.Stats.FCT.AddDist(&ss.FCT)
		classes := make([]string, 0, len(ss.FCTByClass))
		//drill:allow nondeterminism collecting map keys before sorting is order-independent
		for c := range ss.FCTByClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			r.Stats.ClassDist(c).AddDist(ss.FCTByClass[c])
		}
		r.Stats.DupAcks.Merge(&ss.DupAcks)
		r.Stats.WireReorders.Merge(&ss.WireReorders)
		r.Stats.GROBatches += ss.GROBatches
		r.Stats.GROSegments += ss.GROSegments
		r.Stats.Retransmits += ss.Retransmits
		r.Stats.Timeouts += ss.Timeouts
		r.Stats.FlowsFinished += ss.FlowsFinished
		r.Stats.OutOfOrder += ss.OutOfOrder
		r.shardStats[i] = Stats{}
	}
}

func (r *Registry) String() string {
	return fmt.Sprintf("transport.Registry{flows=%d finished=%d}",
		r.Stats.FlowsStarted, r.Stats.FlowsFinished)
}
