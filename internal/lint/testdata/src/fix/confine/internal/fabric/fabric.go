// Package fabric is a fixture model of the real internal/fabric shard
// surface: a Network with per-port domains, worker callbacks registered
// on domain schedulers, and the balancer hook interfaces. It exercises
// every shardconfine check: package-state reads/writes, domain pointers
// escaping shard.go, global-scheduler grabs, the blessed `dom` handle,
// the global-class exemption, and the //drill:allow escape.
package fabric

import "drill/internal/sim"

// totalDrops is package-level mutable state: written in reset below, so
// any worker-reachable touch is a finding.
var totalDrops int

// maxHops is never reassigned or address-taken: a read-only constant in
// var clothing, safe to read from workers.
var maxHops = 12

// Network is the fixture fabric. Sim is the global barrier scheduler.
type Network struct {
	Sim       *sim.Sim
	dom       *domain
	domByNode map[int]*domain
	Ports     []*Port
}

// Port has the blessed own-domain handle and the boundary peer.
type Port struct {
	dom    *domain
	dstDom *domain
	Queue  []int
}

// Engine is one forwarding engine; per-engine state is shard-local.
type Engine struct{ scratch int }

// Balancer picks an output port for a packet.
type Balancer interface {
	Choose(e *Engine, n *Network, flow uint64) int
}

// SendHook sees packets as hosts send them.
type SendHook interface{ OnSend(n *Network, flow uint64) }

// TxObserver sees transmissions.
type TxObserver interface{ OnTx(n *Network, port int) }

// ArriveObserver sees arrivals.
type ArriveObserver interface{ OnArrive(n *Network, port int) }

// runWorker is the worker loop, rooted by the go statement in shard.go.
func (n *Network) runWorker() {
	n.drain()
	n.flush(nil)
}

// drain touches package-level mutable state from worker code: finding.
// The read-only maxHops stays silent.
func (n *Network) drain() {
	totalDrops++ // want `touches package-level variable totalDrops`
	_ = maxHops
}

// build installs the port-event handler on the domain scheduler: the
// literal is a worker root, so txDone and everything below is reachable.
func (n *Network) build(p *Port) {
	n.dom.sim.OnPort(func(int32, bool) { n.txDone(p) })
}

// txDone grabs the boundary peer's domain outside shard.go: finding.
// The own-domain handle p.dom is the blessed accessor and stays silent.
func (n *Network) txDone(p *Port) {
	d := p.dstDom // want `reaches a shard domain through dstDom`
	_ = d
	own := p.dom
	_ = own
	n.route(p)
	n.lookup(3)
	n.grabGlobal()
	n.allowed(4)
}

// route is clean shard-local work.
func (n *Network) route(p *Port) {
	p.Queue = append(p.Queue, 1)
}

// lookup pulls a domain out of the by-node table: a pointer about to
// cross shards.
func (n *Network) lookup(node int) {
	d := n.domByNode[node] // want `indexes into a shard-domain collection`
	_ = d
}

// grabGlobal schedules on the barrier scheduler from worker code.
func (n *Network) grabGlobal() {
	n.Sim.AtPort(1, 0, 0) // want `selects the global scheduler Network.Sim`
}

// allowed crosses domains with an audit trail.
func (n *Network) allowed(node int) {
	//drill:allow shardconfine destination handoff rides the exchange barrier
	d := n.domByNode[node]
	_ = d
}

// reset runs at barrier time: a global-class callback is not a worker
// root, so its package-state write is legal.
func (n *Network) reset() {
	n.Sim.AtGlobal(0, func() { totalDrops = 0 })
}

// tidy carries a pragma that suppresses nothing.
func (n *Network) tidy(p *Port) {
	q := p.Queue //drill:allow shardconfine nothing to suppress here // want `stale //drill:allow shardconfine pragma`
	_ = q
}
