package workload

import (
	"math/rand"

	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
)

// Load expresses offered load as a fraction of the fabric's aggregate
// upward core capacity — the "avg. core link offered load" of the paper's
// x-axes.
type Load float64

// CoreUpCapacity sums the rates of all leaf uplinks (leaf → fabric
// channels) that are currently in service.
func CoreUpCapacity(t *topo.Topology) units.Rate {
	var total units.Rate
	for _, leaf := range t.Leaves {
		for _, cid := range t.Out(leaf) {
			c := t.Chan(cid)
			if t.Nodes[c.To].Kind != topo.Host {
				total += c.Rate
			}
		}
	}
	return total
}

// burstMean is the mean flows per Generator burst.
const burstMean = 8

// Generator drives flow arrivals with empirical sizes: every flow picks a
// source host and a uniform destination host under a different leaf
// (inter-leaf traffic is what exercises the core).
//
// Arrivals come in bursts of geometrically distributed size (mean
// burstMean) whose flows share a source leaf, separated by exponential
// gaps — the ON/OFF burstiness datacenter measurements report ([62], [25])
// and the microburst driver the paper's evaluation depends on. The
// long-run offered load always equals NewGenerator's load × core capacity.
type Generator struct {
	Reg   *transport.Registry
	Sizes *SizeDist

	// Until stops new arrivals at this time; in-flight flows drain after.
	Until units.Time

	rng       *rand.Rand
	meanGapNs float64 // mean gap between bursts
	byLeaf    map[topo.NodeID][]topo.NodeID
	leaves    []topo.NodeID

	// Started counts flows launched.
	Started int64
}

// NewGenerator calibrates arrivals so aggregate demand equals
// load × CoreUpCapacity. Arrivals begin immediately upon Start.
func NewGenerator(reg *transport.Registry, sizes *SizeDist, load Load, until units.Time) *Generator {
	t := reg.Net.Topo
	coreBits := float64(CoreUpCapacity(t))
	demandBits := float64(load) * coreBits
	flowsPerSec := demandBits / (sizes.Mean() * 8)
	g := &Generator{
		Reg: reg, Sizes: sizes, Until: until,
		rng:       reg.Sim.Stream(0x10ad),
		meanGapNs: float64(units.Second) / flowsPerSec, // per flow; scaled by burst in next()
		byLeaf:    map[topo.NodeID][]topo.NodeID{},
		leaves:    t.Leaves,
	}
	for _, h := range t.Hosts {
		l := t.LeafOf(h)
		g.byLeaf[l] = append(g.byLeaf[l], h)
	}
	return g
}

// Start schedules the first arrival.
func (g *Generator) Start() { g.next() }

func (g *Generator) next() {
	gap := units.Time(g.rng.ExpFloat64() * g.meanGapNs * burstMean)
	at := g.Reg.Sim.Now() + gap
	if at > g.Until {
		return
	}
	// Flow arrivals steer hosts in any shard, so they are barrier-class
	// (global) events under the sharded engine.
	g.Reg.Sim.AtGlobal(at, func() {
		g.launch()
		g.next()
	})
}

// launch fires one burst: a geometric number of flows (mean burstMean)
// whose sources share one leaf.
func (g *Generator) launch() {
	n := 1
	for g.rng.Float64() > 1.0/burstMean {
		n++
		if n >= 16*burstMean {
			break
		}
	}
	leaf := g.leaves[g.rng.Intn(len(g.leaves))]
	srcs := g.byLeaf[leaf]
	if len(srcs) == 0 {
		return
	}
	for i := 0; i < n; i++ {
		src := srcs[g.rng.Intn(len(srcs))]
		dst := g.pickRemote(src)
		size := g.Sizes.Sample(g.rng)
		g.Started++
		g.Reg.StartFlow(src, dst, size, "")
	}
}

// pickRemote returns a uniform host under a different leaf than src's.
func (g *Generator) pickRemote(src topo.NodeID) topo.NodeID {
	srcLeaf := g.Reg.Net.Topo.LeafOf(src)
	for {
		leaf := g.leaves[g.rng.Intn(len(g.leaves))]
		if leaf == srcLeaf {
			continue
		}
		hs := g.byLeaf[leaf]
		if len(hs) == 0 {
			continue
		}
		return hs[g.rng.Intn(len(hs))]
	}
}

// The paper's incast configuration: 10% of hosts on each side, 10KB
// flows.
const (
	incastFraction = 0.10
	incastFlowSize = 10_000
)

// Incast runs the Fig. 14 application, the synchronized-read pattern of
// Vasudevan et al. [69]: every Period, a random 10% of hosts act as
// clients, each requesting a 10KB block from every member of a random
// 10% server set simultaneously — the classic many-to-one fan-in that
// overruns buffers. Response flows are tagged "incast".
type Incast struct {
	Reg    *transport.Registry
	Period units.Time
	Until  units.Time

	rng *rand.Rand

	// Events counts incast rounds fired.
	Events int64
}

// NewIncast returns the paper's configuration: 10% senders, 10KB flows.
func NewIncast(reg *transport.Registry, period, until units.Time) *Incast {
	return &Incast{
		Reg: reg, Period: period, Until: until, rng: reg.Sim.Stream(0x1ca57),
	}
}

// Start schedules the first round one period in.
func (i *Incast) Start() {
	i.schedule(i.Reg.Sim.Now() + i.Period)
}

func (i *Incast) schedule(at units.Time) {
	if at > i.Until {
		return
	}
	i.Reg.Sim.AtGlobal(at, func() {
		i.fire()
		i.schedule(at + i.Period)
	})
}

func (i *Incast) fire() {
	i.Events++
	topol := i.Reg.Net.Topo
	hosts := topol.Hosts
	n := len(hosts)
	k := int(float64(n) * incastFraction)
	if k < 1 {
		k = 1
	}
	perm := i.rng.Perm(n)
	clients := perm[:k]
	servers := perm[k : 2*k]
	if len(servers) == 0 {
		return
	}
	for _, ci := range clients {
		client := hosts[ci]
		for _, si := range servers {
			server := hosts[si]
			if server == client || topol.LeafOf(server) == topol.LeafOf(client) {
				continue // keep it inter-leaf like the rest of the evaluation
			}
			i.Reg.StartFlow(server, client, incastFlowSize, "incast")
		}
	}
}
