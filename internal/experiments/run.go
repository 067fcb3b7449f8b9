package experiments

import (
	"fmt"
	"time"

	"drill/internal/fabric"
	"drill/internal/metrics"
	"drill/internal/obs"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/transport"
	"drill/internal/units"
	"drill/internal/workload"
)

// Scheme is a named load-balancing configuration: the balancer plus the
// receiver-shim setting the paper pairs it with.
type Scheme struct {
	Name string
	New  func() fabric.Balancer
	Shim units.Time // 0 = no reordering shim at receivers
}

// DefaultShim is the hold timeout of the receiver reordering shim when a
// scheme uses one. It is sized to cover the queueing-delay skew between
// equal-cost paths (tens of µs) without materially delaying loss recovery:
// a lost packet's successors are flushed, and TCP's duplicate ACKs flow,
// after at most this hold.
const DefaultShim = 100 * units.Microsecond

// RunCfg fully describes one simulation run.
type RunCfg struct {
	Topo   func() *topo.Topology
	Scheme Scheme
	Seed   int64

	Engines  int // forwarding engines per switch (default 1)
	QueueCap int // per-port packet cap (default fabric's 256)

	// Load drives the background Poisson workload; Load 0 disables. Any
	// other load must be positive and finite (Run panics otherwise).
	Load float64

	Warmup  units.Time
	Measure units.Time

	// DrainFlows lets in-flight flows finish after the measure window (FCTs
	// of measured flows are then complete); capped by DrainLimit.
	DrainLimit units.Time

	// Incast adds the Fig. 14 application with this period (0 = off).
	IncastPeriod units.Time

	// Campaign, when non-nil, schedules a scripted fail/restore timeline
	// (mid-run uplink failures, flap storms, pod failures, rolling drains —
	// see campaign.go) against the run. It is the run's only failure path:
	// every action is a global-class event, so campaigns replay identically
	// on both engines. A fabric that starts degraded is a topology instead
	// (FailedUplinks).
	Campaign *Campaign

	// RouteDelay overrides the control plane's reconvergence lag after a
	// failure or recovery (default: fabric's 1ms). Reconvergence is
	// coalesced: all topology events inside one lag window produce a
	// single epoch swap.
	RouteDelay units.Time

	// Shards > 0 runs this simulation on the sharded parallel engine:
	// the topology is partitioned into up to that many per-leaf-group
	// shards (topo.Partition), each owning a private scheduler driven by
	// one worker goroutine, synchronized by the conservative time-window
	// protocol in sim.ShardGroup. Results are byte-identical to Shards=0
	// (the sequential engine) at any shard count — the conformance
	// invariance matrix holds every supported cell shape to that.
	// The balancer must not be fabric.ShardUnsafe; an attached Tracer may
	// only enable the barrier-driven sampler kinds (QueueSample, PortUtil).
	Shards int

	// SampleQueues enables the 10µs queue-length STDV sampler of §3.2.3.
	SampleQueues bool
	// VisFactor overrides the queue-visibility delay factor (default
	// fabric's 0.05).
	VisFactor float64

	// Tracer, when non-nil, receives this run's packet-lifecycle events
	// (see internal/trace). Nil keeps the data plane on its zero-overhead
	// fast path.
	Tracer *trace.Tracer
	// TraceSample, when > 0 with a Tracer attached, starts the periodic
	// queue-depth / port-utilization sampler at that interval.
	TraceSample units.Time

	// Obs, when non-nil, registers this run's fabric, transport and engine
	// observatory (drill_sched_*, and drill_shard_*/drill_window_* on the
	// sharded engine) metric families in the registry, scoped by ObsScope
	// labels, and attaches a sim-time snapshotter publishing every
	// ObsSample. Metrics observe and never steer: enabling them changes no
	// result byte (see conformance.TestInvarianceMatrix).
	Obs *obs.Registry
	// ObsScope is a pre-rendered label body (e.g. `exp="fig6a",cell="3"`)
	// distinguishing this run's series in a shared registry.
	ObsScope string
	// ObsSample is the snapshot interval (default 100µs).
	ObsSample units.Time

	// Synthetic, when non-nil, replaces the Poisson workload (Table 1).
	Synthetic func(reg *transport.Registry, until units.Time) *workload.Synthetic

	// Hook, when non-nil, is invoked at setup to install custom traffic or
	// instrumentation (runs in addition to whatever Load configures).
	Hook func(reg *transport.Registry, until units.Time)
}

// RunResult carries everything the report builders consume.
type RunResult struct {
	FCT          *metrics.Dist // ms, all measured flows
	Classes      map[string]*metrics.Dist
	DupAcks      *metrics.IntHist
	WireReorders *metrics.IntHist
	Hops         *metrics.HopStats

	// UplinkSTDV / DownlinkSTDV are the §3.2.3 queue-balance metrics:
	// time-averaged standard deviation of leaf-uplink queue lengths and of
	// spine-downlink-per-leaf queue lengths, in packets.
	UplinkSTDV, DownlinkSTDV float64

	// Delivered counts packets handed to destination hosts (folded across
	// shards under the sharded engine).
	Delivered int64

	// Sent counts packets hosts handed to their NICs; with QueuedEnd and
	// InFlightEnd it closes the conservation law Sent == Delivered + Drops
	// + QueuedEnd + InFlightEnd at the run's final instant (all folded
	// across shards).
	Sent        int64
	QueuedEnd   int64
	InFlightEnd int64

	// Epochs is the applied control-plane generation count: 1 for the
	// construction epoch plus one per (coalesced) reconvergence.
	Epochs uint64

	Flows       int64
	Drops       int64
	Retransmits int64
	Timeouts    int64
	OutOfOrder  int64 // data packets arriving out of emission order
	GROBatches  int64
	GROSegments int64

	ElephantGbps float64 // mean per-elephant goodput (Synthetic runs)

	// CoreUtil is the measured mean utilization of leaf uplinks during the
	// measurement window (achieved, vs the configured offered Load).
	CoreUtil float64

	Events uint64

	// PacketGets counts packets the transport drew from the fabric's
	// recycling pool; PacketAllocs counts how many of those were fresh heap
	// allocations. Gets - Allocs is the allocation volume pooling avoided.
	PacketGets   int64
	PacketAllocs int64

	// Wall is the host wall-clock duration of the run, setup through
	// drain; SimSpan is the simulated time it covered. Together they give
	// the sim-time/real-time ratio of per-cell progress lines.
	Wall    time.Duration
	SimSpan units.Time

	// Prov is this run's provenance record: scheme, seed, config hash, and
	// headline counters, ready to drop into a manifest. Deterministic
	// fields only — wall time lives in WallNs (and the barrier-stall
	// total in StallNs) and is excluded from determinism fingerprints.
	Prov obs.CellSummary

	// EngineRep is the engine observatory report: per-shard window and
	// barrier counters, the window-width distribution, the cross-shard
	// exchange matrix, and per-scheduler internals. Always populated
	// (sequential runs carry only the scheduler rows); never part of any
	// result fingerprint.
	EngineRep *obs.EngineReport
}

// SimRate returns simulated seconds advanced per wall-clock second.
func (r *RunResult) SimRate() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return r.SimSpan.Seconds() / r.Wall.Seconds()
}

// Run executes one configured simulation and collects its measurements.
// A run is fully self-contained (own event queue, RNG streams, network and
// host state), so distinct runs may execute concurrently; see RunAll.
func Run(cfg RunCfg) *RunResult {
	started := time.Now() //drill:allow simtime wall timing of the whole run for RunResult.Wall, never a sim timestamp
	if cfg.Warmup == 0 {
		cfg.Warmup = 1 * units.Millisecond
	}
	if cfg.Measure == 0 {
		cfg.Measure = 4 * units.Millisecond
	}
	if cfg.DrainLimit == 0 {
		cfg.DrainLimit = 20 * units.Millisecond
	}
	t := cfg.Topo()
	s := sim.New(cfg.Seed)
	fcfg := fabric.Config{
		Balancer:   cfg.Scheme.New(),
		Engines:    cfg.Engines,
		QueueCap:   cfg.QueueCap,
		VisFactor:  cfg.VisFactor,
		RouteDelay: cfg.RouteDelay,
		Tracer:     cfg.Tracer,
	}
	engine := "sequential"
	var net *fabric.Network
	var group *sim.ShardGroup
	if cfg.Shards > 0 {
		if cfg.Tracer != nil {
			for k := trace.Kind(0); k < trace.NumKinds; k++ {
				if k == trace.QueueSample || k == trace.PortUtil {
					continue
				}
				if cfg.Tracer.Enabled(k) {
					panic("experiments: sharded runs only support the sampler trace kinds (queue-sample, port-util); restrict the tracer with trace.WithKinds")
				}
			}
		}
		// s stays the global (barrier) scheduler; the data plane runs on
		// one private scheduler per shard, all sharing the seed so derived
		// random streams are engine-invariant.
		assign, nsh := t.Partition(cfg.Shards)
		shards := make([]*sim.Sim, nsh)
		for i := range shards {
			shards[i] = sim.New(cfg.Seed)
		}
		net = fabric.NewSharded(s, shards, assign, t, fcfg)
		engine = fmt.Sprintf("sharded/%d", nsh)
		group = &sim.ShardGroup{
			Global:    s,
			Shards:    shards,
			Lookahead: net.ShardLookahead(),
			Exchange:  net.ExchangeShards,
		}
		group.Start()
		defer group.Close()
	} else {
		net = fabric.New(s, t, fcfg)
	}
	if cfg.Tracer != nil && cfg.TraceSample > 0 {
		fabric.StartTraceSampler(net, cfg.TraceSample)
	}
	reg := transport.NewRegistry(s, net, transport.Config{ShimTimeout: cfg.Scheme.Shim})
	reg.MeasureFrom = cfg.Warmup
	end := cfg.Warmup + cfg.Measure
	engineReport := func() *obs.EngineReport { return buildEngineReport(engine, s, group, net) }

	var snap *obs.Snapshotter
	if cfg.Obs != nil {
		every := cfg.ObsSample
		if every == 0 {
			every = 100 * units.Microsecond
		}
		// Every series but the transport histograms is a read of a counter
		// the run keeps anyway. Observer ticks fire at barriers with every
		// shard parked, so each read may sum the shards' counters race-free.
		snap = obs.StartSnapshotter(s, cfg.Obs, every)
		net.RegisterReads(snap, cfg.ObsScope)
		reg.EnableMetrics(cfg.Obs, snap, cfg.ObsScope)
		// Live run progress for scrapes and the drillsim heartbeat: the
		// final value equals RunResult.Events (observer events are excluded
		// from Executed), so summing the family across cell scopes gives the
		// sweep's total event count whether cells are finished or mid-run.
		snap.GaugeFunc("drill_run_events", cfg.ObsScope,
			"Events dispatched so far by this run; settles at the run's total.",
			func() float64 { return float64(runExecuted(s, group)) })
		registerEngineReads(snap, cfg.ObsScope, engineReport)
	}

	if cfg.Campaign != nil {
		if err := cfg.Campaign.Install(s, net, t, cfg.Seed, end); err != nil {
			panic("experiments: " + err.Error())
		}
	}

	var syn *workload.Synthetic
	if cfg.Synthetic != nil {
		syn = cfg.Synthetic(reg, end)
	} else if cfg.Load != 0 {
		// The cache-follower trace with its tail truncated so millisecond
		// windows can actually carry the offered load.
		sizes := workload.Truncate(workload.FacebookCache, 2e6)
		g := workload.NewGenerator(reg, sizes, workload.Load(cfg.Load), end)
		g.Start()
	}
	if cfg.IncastPeriod > 0 {
		inc := workload.NewIncast(reg, cfg.IncastPeriod, end)
		inc.Start()
	}
	if cfg.Hook != nil {
		cfg.Hook(reg, end)
	}

	// The reads below only look at the run, so they are observer events:
	// each lands at its instant and in its key slot, at a barrier on the
	// sharded engine, and none counts as a simulation event.
	var sampler *queueSampler
	if cfg.SampleQueues {
		sampler = newQueueSampler(net)
		const every = 10 * units.Microsecond
		var tick *sim.Ticker
		tick = sim.NewObserverTicker(s, every, func(now units.Time) {
			if now >= cfg.Warmup && now <= end {
				sampler.sample()
			}
			if now+every > end {
				tick.Stop()
			}
		})
	}

	// Snapshot uplink byte counters around the measure window for the
	// achieved-utilization metric.
	uplinks := allLeafUplinks(net)
	var txAtWarmup, txAtEnd int64
	s.AfterObserver(cfg.Warmup-s.Now(), func() {
		for _, p := range uplinks {
			txAtWarmup += p.TxBytes()
		}
	})
	s.AfterObserver(end-s.Now(), func() {
		for _, p := range uplinks {
			txAtEnd += p.TxBytes()
		}
	})

	if group != nil {
		group.RunUntil(end)
		// Let measured in-flight flows drain so tail FCTs are complete.
		group.RunUntil(end + cfg.DrainLimit)
		group.Close()
	} else {
		s.RunUntil(end)
		s.RunUntil(end + cfg.DrainLimit)
	}
	net.FoldShards()
	reg.Fold()
	if snap != nil {
		// Publish the terminal state even if the run ended mid-interval;
		// the registry keeps its values, not the run.
		snap.Final(s.Now())
	}

	var coreCap float64
	for _, p := range uplinks {
		coreCap += float64(p.Rate)
	}
	coreUtil := 0.0
	if coreCap > 0 {
		coreUtil = float64(txAtEnd-txAtWarmup) * 8 / (coreCap * cfg.Measure.Seconds())
	}

	res := &RunResult{
		FCT:          &reg.Stats.FCT,
		Classes:      reg.Stats.FCTByClass,
		DupAcks:      &reg.Stats.DupAcks,
		WireReorders: &reg.Stats.WireReorders,
		Hops:         &net.Hops,
		Delivered:    net.Delivered,
		Sent:         net.Sent,
		QueuedEnd:    net.QueuedPackets(),
		InFlightEnd:  net.InFlightPackets(),
		Epochs:       net.EpochSeq(),
		Flows:        reg.Stats.FlowsStarted,
		Drops:        net.Hops.TotalDrops(),
		Retransmits:  reg.Stats.Retransmits,
		Timeouts:     reg.Stats.Timeouts,
		OutOfOrder:   reg.Stats.OutOfOrder,
		GROBatches:   reg.Stats.GROBatches,
		GROSegments:  reg.Stats.GROSegments,
		CoreUtil:     coreUtil,
		Events:       runExecuted(s, group),
		PacketGets:   net.Pool().Gets,
		PacketAllocs: net.Pool().News,
		Wall:         time.Since(started), //drill:allow simtime wall timing of the whole run for RunResult.Wall, never a sim timestamp
		SimSpan:      end + cfg.DrainLimit,
	}
	if sampler != nil {
		res.UplinkSTDV = sampler.up.Mean()
		res.DownlinkSTDV = sampler.down.Mean()
	}
	if syn != nil {
		res.ElephantGbps = syn.ElephantGoodput(cfg.Measure + cfg.DrainLimit)
	}
	res.EngineRep = engineReport()
	res.Prov = obs.CellSummary{
		Scheme:      cfg.Scheme.Name,
		Seed:        cfg.Seed,
		Load:        cfg.Load,
		Engine:      engine,
		ConfigHash:  obs.ConfigHash(provConfig(cfg)),
		Events:      res.Events,
		Flows:       res.Flows,
		Drops:       res.Drops,
		Retransmits: res.Retransmits,
		Timeouts:    res.Timeouts,
		OutOfOrder:  res.OutOfOrder,
		WallNs:      res.Wall.Nanoseconds(),
	}
	if res.FCT.Count() > 0 {
		res.Prov.FCTMeanUs = res.FCT.Mean() * 1000 // Stats.FCT is in ms
		res.Prov.FCTP99Us = res.FCT.Percentile(99) * 1000
	}
	if group != nil {
		// Barrier-overhead provenance: Windows and Imbalance are
		// deterministic (pure functions of seed and partition); StallNs is
		// wall-derived and treated exactly like WallNs by determinism
		// comparisons.
		res.Prov.Windows = res.EngineRep.WindowCount
		res.Prov.Imbalance = res.EngineRep.Imbalance()
		res.Prov.StallNs = res.EngineRep.StallNs()
	}
	return res
}

// provConfig is the hashable view of a RunCfg: every behaviour-relevant
// scalar field, none of the function or pointer fields (topology builders
// and hooks identify themselves through the scheme/experiment names).
// Feeding it to obs.ConfigHash gives two runs the same hash iff they were
// configured identically.
func provConfig(cfg RunCfg) any {
	return struct {
		Scheme       string
		Shim         int64
		Seed         int64
		Engines      int
		QueueCap     int
		Load         float64
		WarmupNs     int64
		MeasureNs    int64
		DrainNs      int64
		IncastNs     int64
		Campaign     string
		RouteDelayNs int64
		SampleQueues bool
		VisFactor    float64
		Synthetic    bool
		Shards       int
	}{
		Scheme: cfg.Scheme.Name, Shim: int64(cfg.Scheme.Shim), Seed: cfg.Seed,
		Engines: cfg.Engines, QueueCap: cfg.QueueCap, Load: cfg.Load,
		WarmupNs: int64(cfg.Warmup), MeasureNs: int64(cfg.Measure),
		DrainNs: int64(cfg.DrainLimit), IncastNs: int64(cfg.IncastPeriod),
		Campaign:     cfg.Campaign.Fingerprint(),
		RouteDelayNs: int64(cfg.RouteDelay),
		SampleQueues: cfg.SampleQueues, VisFactor: cfg.VisFactor,
		Synthetic: cfg.Synthetic != nil, Shards: cfg.Shards,
	}
}

// runExecuted reports the run's dispatched-event total: the one scheduler's
// count sequentially, the global+shard sum under the sharded engine (the
// event-to-scheduler mapping is one-to-one, so the totals agree).
func runExecuted(s *sim.Sim, group *sim.ShardGroup) uint64 {
	if group != nil {
		return group.Executed()
	}
	return s.Executed
}

// allLeafUplinks collects every leaf's fabric-facing output ports.
func allLeafUplinks(net *fabric.Network) []*fabric.Port {
	var out []*fabric.Port
	for _, leaf := range net.Topo.Leaves {
		out = append(out, net.LeafUplinks(leaf)...)
	}
	return out
}

// queueSampler implements the §3.2.3 metric: every 10µs, the standard
// deviation of each leaf's uplink queue lengths and of the fabric downlink
// queues pointing at each leaf.
type queueSampler struct {
	upGroups   [][]*fabric.Port
	downGroups [][]*fabric.Port
	up, down   metrics.Welford
	scratch    []int32
}

func newQueueSampler(net *fabric.Network) *queueSampler {
	qs := &queueSampler{}
	for _, leaf := range net.Topo.Leaves {
		if ups := net.LeafUplinks(leaf); len(ups) > 1 {
			qs.upGroups = append(qs.upGroups, ups)
		}
		if downs := net.DownlinksTo(leaf); len(downs) > 1 {
			qs.downGroups = append(qs.downGroups, downs)
		}
	}
	return qs
}

func (qs *queueSampler) sample() {
	for _, g := range qs.upGroups {
		qs.up.Add(qs.stdv(g))
	}
	for _, g := range qs.downGroups {
		qs.down.Add(qs.stdv(g))
	}
}

func (qs *queueSampler) stdv(ports []*fabric.Port) float64 {
	qs.scratch = qs.scratch[:0]
	for _, p := range ports {
		qs.scratch = append(qs.scratch, p.QueueLen())
	}
	return metrics.StdDevInt32(qs.scratch)
}
