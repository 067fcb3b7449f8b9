package drill

import (
	"drill/internal/fabric"
	"drill/internal/metrics"
	"drill/internal/sim"
	"drill/internal/transport"
	"drill/internal/workload"
)

// Options configures a Cluster.
type Options struct {
	// Balancer selects the load-balancing policy (default DRILL()).
	Balancer Balancer
	// Seed makes the run reproducible (default 1).
	Seed int64
	// Engines is the number of parallel forwarding engines per switch.
	Engines int
	// QueueCap is the per-port packet buffer (default 256).
	QueueCap int
	// ShimTimeout enables the receiver reordering shim (0 = off).
	ShimTimeout Time
	// RouteDelay is the control-plane reconvergence delay after failures.
	RouteDelay Time
	// TrackGRO enables GRO batching telemetry.
	TrackGRO bool
}

// Cluster is a running simulated data center: topology + switches + host
// TCP stacks on one discrete-event timeline.
type Cluster struct {
	sim *sim.Sim
	net *fabric.Network
	reg *transport.Registry
}

// NewCluster assembles a cluster over the topology.
func NewCluster(t *Topology, o Options) *Cluster {
	if o.Balancer == nil {
		o.Balancer = DRILL()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	s := sim.New(o.Seed)
	net := fabric.New(s, t, fabric.Config{
		Balancer:   o.Balancer,
		Engines:    o.Engines,
		QueueCap:   o.QueueCap,
		RouteDelay: o.RouteDelay,
	})
	reg := transport.NewRegistry(s, net, transport.Config{
		ShimTimeout: o.ShimTimeout,
		TrackGRO:    o.TrackGRO,
	})
	return &Cluster{sim: s, net: net, reg: reg}
}

// Hosts lists the cluster's host node IDs.
func (c *Cluster) Hosts() []NodeID { return c.net.Topo.Hosts }

// Topology returns the underlying fabric graph.
func (c *Cluster) Topology() *Topology { return c.net.Topo }

// Now returns the current simulated time.
func (c *Cluster) Now() Time { return c.sim.Now() }

// StartFlow begins a TCP transfer of size bytes (size < 0 = open-ended;
// read progress via Flow.AckedBytes). Class tags the flow for per-class
// statistics. The returned handle stays valid for the whole run, after
// the flow finishes too.
func (c *Cluster) StartFlow(src, dst NodeID, size int64, class string) *Flow {
	return c.reg.StartFlow(src, dst, size, class)
}

// At schedules fn at an absolute simulated time (before or during Run).
func (c *Cluster) At(t Time, fn func()) { c.sim.At(t, fn) }

// Run advances the simulation by d (processing all traffic due in that
// window, plus whatever it spawns inside the window).
func (c *Cluster) Run(d Time) { c.sim.RunUntil(c.sim.Now() + d) }

// RunToCompletion processes events until all traffic drains.
func (c *Cluster) RunToCompletion() { c.sim.Run() }

// OfferLoad starts background traffic: Poisson/bursty flow arrivals with
// sizes drawn from dist, calibrated so aggregate demand equals load (0..1)
// of the fabric's core capacity, until the given time. It panics unless
// load is positive and finite.
func (c *Cluster) OfferLoad(load float64, dist *SizeDist, until Time) {
	g := workload.NewGenerator(c.reg, dist, workload.Load(load), until)
	g.Start()
}

// StartIncast runs the paper's incast application: every period, 10% of
// hosts each send a 10KB flow to hosts drawn from a random 10% subset.
func (c *Cluster) StartIncast(period, until Time) {
	workload.NewIncast(c.reg, period, until).Start()
}

// MeasureFrom excludes flows started before t from statistics (warm-up).
func (c *Cluster) MeasureFrom(t Time) { c.reg.MeasureFrom = t }

// FailLink takes a link out of service; routing reconverges after the
// cluster's RouteDelay (or immediately if instant). Failing a link that is
// already down is a no-op.
func (c *Cluster) FailLink(id LinkID, instant bool) { c.net.FailLink(id, instant) }

// RestoreLink returns a failed link to service: both directions carry
// traffic again immediately, and routing reconverges onto the revived
// capacity after the cluster's RouteDelay (or immediately if instant).
// Restoring a link that is already up is a no-op.
func (c *Cluster) RestoreLink(id LinkID, instant bool) { c.net.RestoreLink(id, instant) }

// LinksBetween returns the up links directly connecting two nodes.
func (c *Cluster) LinksBetween(a, b NodeID) []LinkID { return c.net.Topo.LinkBetween(a, b) }

// LeafOf returns the leaf switch a host attaches to.
func (c *Cluster) LeafOf(h NodeID) NodeID { return c.net.Topo.LeafOf(h) }

// Stats exposes the cluster's transport-level measurements.
func (c *Cluster) Stats() *ClusterStats {
	return &ClusterStats{c: c}
}

// ClusterStats reads measurements out of a cluster.
type ClusterStats struct {
	c *Cluster
}

// FCT returns the flow-completion-time distribution (milliseconds),
// optionally restricted to a class ("" = all flows).
func (s *ClusterStats) FCT(class string) *FCTStats {
	if class == "" {
		return &s.c.reg.Stats.FCT
	}
	return s.c.reg.Stats.ClassDist(class)
}

// FlowsStarted and FlowsFinished report flow counts.
func (s *ClusterStats) FlowsStarted() int64  { return s.c.reg.Stats.FlowsStarted }
func (s *ClusterStats) FlowsFinished() int64 { return s.c.reg.Stats.FlowsFinished }

// Retransmits reports total TCP segment retransmissions.
func (s *ClusterStats) Retransmits() int64 { return s.c.reg.Stats.Retransmits }

// Delivered reports total packets handed to destination hosts.
func (s *ClusterStats) Delivered() int64 { return s.c.net.Delivered }

// Drops reports total packets dropped in the fabric.
func (s *ClusterStats) Drops() int64 { return s.c.net.Hops.TotalDrops() }

// DupAckFlowFraction reports the fraction of finished flows that generated
// at least n duplicate ACKs (the paper's reordering metric).
func (s *ClusterStats) DupAckFlowFraction(n int) float64 {
	return s.c.reg.Stats.DupAcks.FracAtLeast(n)
}

// MeanHopQueueing reports mean queueing (µs) at a hop class 0..5
// (host-NIC, leaf-up, agg-up, core-down, spine-down, leaf-to-host).
func (s *ClusterStats) MeanHopQueueing(hop int) float64 {
	// A packet's queueing is recorded when it starts transmitting, which
	// a port settles when read: bring every port up to now first.
	s.c.net.Settle()
	return s.c.net.Hops.MeanQueueing(metrics.HopClass(hop))
}

// QueueImbalance samples the current standard deviation of each leaf's
// uplink queue lengths, averaged over leaves — an instantaneous view of
// the §3.2.3 balance metric.
func (s *ClusterStats) QueueImbalance() float64 {
	var w metrics.Welford
	for _, leaf := range s.c.net.Topo.Leaves {
		ups := s.c.net.LeafUplinks(leaf)
		if len(ups) < 2 {
			continue
		}
		lens := make([]int32, len(ups))
		for i, p := range ups {
			lens[i] = p.QueueLen()
		}
		w.Add(metrics.StdDevInt32(lens))
	}
	return w.Mean()
}

// Internal returns the underlying simulator, network and transport
// registry for advanced use (custom instrumentation, custom traffic).
func (c *Cluster) Internal() (*sim.Sim, *fabric.Network, *transport.Registry) {
	return c.sim, c.net, c.reg
}
