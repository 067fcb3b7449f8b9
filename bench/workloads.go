package main

import (
	"drill/internal/experiments"
	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
	wl "drill/internal/workload"
)

// workload is one named benchmark configuration. The seed is the only
// input that varies between runs of a workload.
type workload struct {
	name string
	cfg  func(seed int64) experiments.RunCfg
	// ref names a workload whose normalised fingerprint this one must
	// reproduce exactly (the sharded engine against the sequential one).
	ref string
}

// catalog returns the benchmark's workloads; README.md says why each
// exists. small shrinks every shape (k=8 fat-trees, 4 leaves, 200µs
// windows) for the package's self-test while keeping the names, the
// schemes and the layers each one stresses.
func catalog(small bool) []workload {
	leaves, lsMeasure, incMeasure := 16, 4*units.Millisecond, 10*units.Millisecond
	k, ftMeasure := 12, 2*units.Millisecond
	if small {
		leaves, lsMeasure, incMeasure = 4, 200*units.Microsecond, 200*units.Microsecond
		k, ftMeasure = 8, 200*units.Microsecond
	}
	// The paper's Fig. 6 Clos: 4 spines, 20 hosts per leaf, 40G core / 10G edge.
	leafSpine := func() *topo.Topology {
		return topo.LeafSpine(topo.LeafSpineConfig{
			Spines: 4, Leaves: leaves, HostsPerLeaf: 20,
			HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps,
		})
	}
	fatTree := func() *topo.Topology {
		return topo.FatTree(topo.FatTreeConfig{K: k, LinkRate: 10 * units.Gbps})
	}
	fatTreeDRILL := func(seed int64) experiments.RunCfg {
		return experiments.RunCfg{
			Topo: fatTree, Scheme: scheme("DRILL"), Seed: seed, Load: 0.5,
			Warmup: 100 * units.Microsecond, Measure: ftMeasure,
		}
	}
	return []workload{
		{
			// The paper's headline experiment and the loop-bound case.
			name: "leafspine-drill-80",
			cfg: func(seed int64) experiments.RunCfg {
				return experiments.RunCfg{
					Topo: leafSpine, Scheme: scheme("DRILL"), Seed: seed, Load: 0.8,
					Warmup: 200 * units.Microsecond, Measure: lsMeasure,
				}
			},
		},
		{
			// Loss recovery, RTO re-arms and drops carry the loop; the
			// balancer is one hash, so the DRILL pick and Quiver are bypassed.
			name: "leafspine-ecmp-incast",
			cfg: func(seed int64) experiments.RunCfg {
				return experiments.RunCfg{
					Topo: leafSpine, Scheme: scheme("ECMP"), Seed: seed, Load: 0.2,
					IncastPeriod: 300 * units.Microsecond, QueueCap: 128,
					Warmup: 200 * units.Microsecond, Measure: incMeasure,
				}
			},
		},
		{
			// The fat-tree case: the heaviest set-up (path enumeration,
			// Quiver build and decomposition, table install) and 5-hop paths.
			name: "fattree12-drill",
			cfg:  fatTreeDRILL,
		},
		{
			// The only workload that runs shard windows, barriers and
			// exchange; its outputs must equal the sequential run's.
			name: "fattree12-drill-shards2",
			cfg: func(seed int64) experiments.RunCfg {
				cfg := fatTreeDRILL(seed)
				cfg.Shards = 2
				return cfg
			},
			ref: "fattree12-drill",
		},
		{
			// Mid-run epoch rebuilds (routes, Quiver, tables) carry the loop.
			name: "fattree12-drill-podfail",
			cfg: func(seed int64) experiments.RunCfg {
				return experiments.RunCfg{
					Topo: fatTree, Scheme: scheme("DRILL"), Seed: seed,
					// Open-ended elephants on a seeded bijection keep the
					// packet volume, and so the rebuilds' share of the loop,
					// nearly seed-independent. They never finish, so there is
					// nothing to drain.
					Synthetic: func(reg *transport.Registry, until units.Time) *wl.Synthetic {
						syn := wl.NewSynthetic(reg, until+1, until)
						syn.Run(wl.Bijection(reg.Net.Topo, reg.Sim.Stream(0xb1)))
						return syn
					},
					Warmup: 50 * units.Microsecond, Measure: 150 * units.Microsecond,
					DrainLimit: units.Nanosecond,
					// At the default 1ms lag the fail and the restore would
					// coalesce into one epoch; 50µs gives each its own.
					Campaign: experiments.PodFailure(2), RouteDelay: 50 * units.Microsecond,
				}
			},
		},
	}
}

// scheme resolves one of the program's named schemes.
func scheme(name string) experiments.Scheme {
	sc, ok := experiments.SchemeByName(name)
	if !ok {
		panic("bench: unknown scheme " + name)
	}
	return sc
}

// lookup finds a workload by name.
func lookup(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
