package fabric

import (
	"drill/internal/quiver"
	"drill/internal/topo"
	"drill/internal/units"
)

// Epoch is one immutable generation of control-plane configuration: the
// link up/down vector it was computed for, the routes derived from that
// vector, the balancer's forwarding tables, and (for Quiver-based schemes)
// the symmetric-component decomposition. The data plane never consults an
// Epoch directly — ApplyEpoch installs its contents into the running
// Network in one atomic step — so a built-but-unapplied epoch can be held,
// inspected, or discarded without perturbing the simulation.
//
// Epochs are the reconfiguration unit the ROADMAP's control-plane/dataplane
// split calls for: everything a scheme bakes in at construction time
// (routes, tables, decomposition) lives in the epoch, while per-engine
// scheduler state, queue contents, and counters are runtime state that
// survives a swap (engines restart their per-group state because group IDs
// change meaning across table generations).
type Epoch struct {
	// Seq is the epoch's generation number: 1 for the construction-time
	// epoch, monotonically increasing from there. BuildEpoch assigns it.
	Seq uint64

	// BuiltAt is the sim time the epoch was computed — the moment the
	// control plane snapshotted link state. The reconvergence delay is the
	// gap between the triggering event and the ApplyEpoch that installs it.
	BuiltAt units.Time

	// LinkUp is the link up/down vector the epoch was computed from,
	// indexed by topo.LinkID. ApplyEpoch syncs the data plane to it.
	LinkUp []bool

	// Routes is the shortest-path routing state over LinkUp.
	Routes *topo.Routes

	// Quiver is the symmetric-component decomposition, non-nil only when
	// the balancer's table builder decomposes via the Quiver (§3.4).
	Quiver *quiver.Quiver

	// tables holds the per-switch forwarding tables, in the (node-ordered)
	// sequence the builder installed them.
	tables []epochTable
}

// epochTable is one switch's forwarding state within an epoch.
type epochTable struct {
	node       topo.NodeID
	tables     [][]Group
	groupCount int32
}

// Epoch returns the currently applied epoch.
func (n *Network) Epoch() *Epoch { return n.epoch }

// EpochSeq returns the generation number of the applied epoch — a cheap
// "how many reconvergences have happened" probe for tests and telemetry.
func (n *Network) EpochSeq() uint64 {
	if n.epoch == nil {
		return 0
	}
	return n.epoch.Seq
}

// Quiver returns the applied epoch's symmetric-component decomposition,
// nil when the active scheme does not build one.
func (n *Network) Quiver() *quiver.Quiver { return n.epoch.Quiver }

// BuildEpoch computes a fresh epoch from the topology's current link
// state: routes, the balancer's forwarding tables, and — when the builder
// installs one — the Quiver decomposition. The running network is not
// modified: the builder's InstallGroups and InstallQuiver calls fill the
// epoch under construction (n.building), and n.Routes is restored after
// the builder runs. Control-plane cost only; never call it from the
// data-plane hot path.
func (n *Network) BuildEpoch() *Epoch {
	e := &Epoch{
		Seq:     n.EpochSeq() + 1,
		BuiltAt: n.Sim.Now(),
		LinkUp:  make([]bool, len(n.Topo.Links)),
	}
	for i := range n.Topo.Links {
		e.LinkUp[i] = n.Topo.Links[i].Up
	}
	e.Routes = topo.ComputeRoutes(n.Topo)
	// Table builders read net.Routes; point them at the epoch's routes for
	// the duration of the build, and capture what they install.
	saved := n.Routes
	n.Routes = e.Routes
	n.building = e
	if tb, ok := n.balancer.(TableBuilder); ok {
		tb.BuildTables(n)
	} else {
		n.BuildDefaultTables()
	}
	n.building = nil
	n.Routes = saved
	return e
}

// ApplyEpoch atomically swaps the network onto epoch e: the link up/down
// vector, routes, Quiver decomposition, and every switch's forwarding
// tables (per-group engine state restarts, as after any table rebuild).
//
// It is a barrier-class operation: call it only from a global-class sim
// event (AtGlobal/AfterGlobal) — sequentially the global class orders it
// ahead of same-instant data-plane events; under the sharded engine
// globals run at a window barrier with every shard parked, so the swap is
// atomic with respect to all shards and touching cross-shard port and
// stat state here is legal.
//
// Links sync through setLink, exactly as FailLink and RestoreLink do. A
// flap shorter than an in-service packet's serialization time is
// invisible to that packet: its txDone finds the port up again and
// delivers normally.
func (n *Network) ApplyEpoch(e *Epoch) {
	for li, up := range e.LinkUp {
		n.setLink(topo.LinkID(li), up)
	}
	n.Routes = e.Routes
	for i := range e.tables {
		et := &e.tables[i]
		sw := n.Switches[et.node]
		sw.tables = et.tables
		// Group IDs may change meaning across table generations, so every
		// engine restarts its per-group scheduler state.
		for _, eng := range sw.engines {
			eng.state = make([]any, et.groupCount)
		}
	}
	n.epoch = e
}

// setLink puts link id and both of its ports in service (up) or out of
// it. A port going down loses its waiting packets, unless one is in
// service: that packet's txDone then drops it and drains the rest. A port
// coming up resumes transmission if anything is waiting.
func (n *Network) setLink(id topo.LinkID, up bool) {
	n.Topo.Links[id].Up = up
	for dir := int32(0); dir < 2; dir++ {
		p := n.Ports[2*int32(id)+dir]
		if p.up == up {
			continue
		}
		p.up = up
		if p.busy {
			continue
		}
		if !up {
			n.drainPort(p)
		} else if !p.queue.empty() {
			n.transmit(p)
		}
	}
}

// Reconverge recomputes routing and tables from the topology's current
// link state and applies the result immediately — the idealized
// zero-delay control-plane step. It is invoked at construction and by the
// instant variants of FailLink/RestoreLink. Like ApplyEpoch, mid-run
// callers must be on a global-class event.
func (n *Network) Reconverge() {
	n.ApplyEpoch(n.BuildEpoch())
}

// reconverge reconverges now (instant) or arms one coalesced
// reconvergence RouteDelay from now. Further failure or recovery events
// inside the window ride the same pending epoch build instead of
// scheduling their own — the control plane batches LSAs — so N flaps in a
// window rebuild every switch's tables once, not N times. The epoch is
// built at fire time, from whatever the link vector then is.
func (n *Network) reconverge(instant bool) {
	switch {
	case instant:
		n.Reconverge()
	case !n.reconvergePending:
		n.reconvergePending = true
		n.Sim.AfterGlobal(n.Cfg.RouteDelay, n.reconvergeFire)
	}
}

func (n *Network) reconvergeFire() {
	n.reconvergePending = false
	n.Reconverge()
}

// FailLink takes a link out of service mid-run: both directions stop
// transmitting, queued packets are lost, and the control plane reconverges
// after Cfg.RouteDelay (coalesced across failures in the same window; pass
// instantReconverge for the idealized variant). Failing an already-down
// link is a no-op — notably it does not drain (and double-count drops on)
// ports that are already dead. Call from a global-class event mid-run.
func (n *Network) FailLink(id topo.LinkID, instantReconverge bool) {
	if !n.Topo.Links[id].Up {
		return
	}
	n.setLink(id, false)
	n.reconverge(instantReconverge)
}

// RestoreLink is FailLink's missing inverse: it returns a link to service
// mid-run. Both directions come up immediately — the wire is live the
// moment the transceiver is — and transmission kicks off if anything is
// waiting; the control plane reconverges after Cfg.RouteDelay (coalesced,
// like failures), so traffic only shifts back once tables catch up.
// Restoring an already-up link is a no-op. Call from a global-class event
// mid-run.
func (n *Network) RestoreLink(id topo.LinkID, instantReconverge bool) {
	if n.Topo.Links[id].Up {
		return
	}
	n.setLink(id, true)
	n.reconverge(instantReconverge)
}

// InstallQuiver records the decomposition a table builder computed in the
// epoch under construction, so the epoch (and Network.Quiver) expose it
// for inspection and experiments. DRILLAsym calls it from BuildTables.
func (n *Network) InstallQuiver(q *quiver.Quiver) {
	n.building.Quiver = q
}
