// Package transport implements the end-host stack the evaluation runs over
// the fabric: TCP NewReno senders and receivers (slow start, congestion
// avoidance, triple-duplicate-ACK fast retransmit/recovery, RTO with
// SRTT/RTTVAR estimation), flow-completion-time accounting, duplicate-ACK
// accounting for the Fig. 11(a) reordering analysis, and the optional
// receiver-side reordering shim + GRO batching models from internal/gro.
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
	// MinRTO is the retransmission-timer floor (default 1ms). The paper's
	// NSC Linux 2.6 stack used the stock 200ms floor, which is why its
	// tail-FCT axes reach hundreds of ms on every loss; 1ms preserves the
	// drop→timeout→tail amplification at simulation horizons a single
	// machine can run. Set 200µs for modern datacenter-tuned stacks.
	MinRTO units.Time

	// ShimTimeout > 0 enables the receiver reordering shim with that hold
	// timeout ("DRILL" vs "DRILL w/o shim", Presto's shim).
	ShimTimeout units.Time

	// AdaptiveShim upgrades the shim to the Juggler-style adaptive variant:
	// the hold tracks observed reordering skew between ShimTimeout/10 and
	// ShimTimeout, so losses stall flows for less than the fixed hold would.
	AdaptiveShim bool

	// TrackGRO enables GRO batch accounting.
	TrackGRO bool

	// DCTCP enables DCTCP congestion control on senders: receivers echo
	// per-packet ECN marks and senders scale their window by the marked
	// fraction (α) once per window. Pair with fabric.Config.ECNThreshold.
	DCTCP bool
}

func (c *Config) defaults() {
	if c.MinRTO == 0 {
		c.MinRTO = 1 * units.Millisecond
	}
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

	agents   map[topo.NodeID]*Agent
	nextFlow uint64
	tracer   *trace.Tracer // the network's tracer, nil when tracing is off
	met      *Metrics      // histogram observations, nil when metrics are off

	// MeasureFrom: flows started before this time are warm-up and excluded
	// from Stats (they still load the network).
	MeasureFrom units.Time

	// OnComplete, when set, is invoked for every finished flow.
	OnComplete func(f *Sender)
}

// NewRegistry attaches a transport agent to every host in the network.
func NewRegistry(s *sim.Sim, net *fabric.Network, cfg Config) *Registry {
	cfg.defaults()
	r := &Registry{Sim: s, Net: net, Cfg: cfg, agents: map[topo.NodeID]*Agent{},
		tracer: net.Tracer()}
	if net.Sharded() {
		r.shardStats = make([]Stats, net.NumDomains())
	}
	for _, h := range net.Topo.Hosts {
		host := net.Host(h)
		a := &Agent{reg: r, host: host,
			sim:       net.DomainSim(h),
			stats:     &r.Stats,
			senders:   map[uint64]*Sender{},
			receivers: map[uint64]*Receiver{},
		}
		if net.Sharded() {
			a.stats = &r.shardStats[net.DomainIndex(h)]
		}
		host.Handler = a
		r.agents[h] = a
	}
	return r
}

// Agent is the per-host transport endpoint; it demultiplexes delivered
// packets to flow senders (ACKs) and receivers (data). Its sim and stats
// belong to the host's shard domain: every timer a flow arms, every clock
// it reads, and every counter it bumps stays inside one shard, which is
// what lets shards run their windows concurrently. Sequentially both
// simply alias the registry's Sim and Stats.
type Agent struct {
	reg       *Registry
	host      *fabric.Host
	sim       *sim.Sim
	stats     *Stats
	senders   map[uint64]*Sender
	receivers map[uint64]*Receiver
}

// HandlePacket implements fabric.PacketHandler.
func (a *Agent) HandlePacket(h *fabric.Host, pkt *fabric.Packet) {
	switch pkt.Kind {
	case fabric.Ack:
		if s := a.senders[pkt.FlowID]; s != nil {
			s.onAck(pkt)
		}
	case fabric.Data:
		rcv := a.receivers[pkt.FlowID]
		if rcv == nil {
			rcv = newReceiver(a, pkt)
			a.receivers[pkt.FlowID] = rcv
		}
		rcv.onData(pkt)
	}
}

// StartFlow begins a TCP transfer of size bytes from src to dst. Class tags
// the flow for per-class FCT reporting ("", "mice", "elephant", "incast").
// Infinite flows (size < 0) never finish; their throughput is read via
// Sender.AckedBytes.
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
	// The flow's one RTO timer: allocated once here, re-armed in place for
	// the flow's whole lifetime. It lives in the source host's scheduler
	// so retransmission timeouts fire inside the host's shard.
	s.rtoTimer = a.sim.NewTimer(s.onTimeout)
	a.senders[id] = s
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
