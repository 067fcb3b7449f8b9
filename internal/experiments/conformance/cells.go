package conformance

import (
	"drill/internal/experiments"
	"drill/internal/topo"
	"drill/internal/units"
)

// confTopo is the conformance fabric: the Fig. 6 leaf–spine at its paper
// scale (4 spines, 8 leaves × 20 hosts, 10G edge / 40G core). Eight leaves
// partition evenly at every shard count the tests sweep (1, 2, 4, 8).
func confTopo() *topo.Topology {
	return topo.LeafSpine(topo.LeafSpineConfig{
		Spines: 4, Leaves: 8, HostsPerLeaf: 20,
		HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps,
	})
}

// Cells returns the conformance grid: the tiny scheme × seed sweep plus a
// drop-heavy cell and a mid-run link-failure cell, so the compared paths
// include overflow drops, retransmissions, dead-link drains, and
// reconvergence — every code path a shard boundary could reorder, not just
// happy-path delivery. One short cell each then covers the other schemes
// that shard: RR's per-engine cursors, WCMP's weighted tables and Presto's
// source routes with its shim. Ends with ReconfigCells.
func Cells() []experiments.RunCfg {
	var cells []experiments.RunCfg
	for si, name := range []string{"ECMP", "DRILL", "Random"} {
		sc := experiments.MustScheme(name)
		for seed := int64(1); seed <= 2; seed++ {
			cells = append(cells, experiments.RunCfg{
				Topo: confTopo, Scheme: sc,
				Seed: seed + int64(si*100), Load: 0.3,
				Warmup:  100 * units.Microsecond,
				Measure: 400 * units.Microsecond,
			})
		}
	}
	cells = append(cells, experiments.RunCfg{
		Topo: confTopo, Scheme: experiments.MustScheme("ECMP"), Seed: 11, Load: 0.9, QueueCap: 8,
		Warmup:  100 * units.Microsecond,
		Measure: 400 * units.Microsecond,
	})
	cells = append(cells, experiments.RunCfg{
		Topo: confTopo, Scheme: experiments.MustScheme("DRILL"), Seed: 12, Load: 0.5,
		Campaign: experiments.UplinkFailure(1, 200*units.Microsecond, false),
		Warmup:   100 * units.Microsecond,
		Measure:  400 * units.Microsecond,
	})
	for si, name := range []string{"RR", "WCMP", "Presto"} {
		cells = append(cells, experiments.RunCfg{
			Topo: confTopo, Scheme: experiments.MustScheme(name),
			Seed: int64(21 + si), Load: 0.3,
			Warmup:  100 * units.Microsecond,
			Measure: 200 * units.Microsecond,
		})
	}
	cells = append(cells, ReconfigCells()...)
	return cells
}

// ReconfigCells returns the live-reconfiguration cells: scripted mid-run
// fail → restore campaigns with a short RouteDelay so two full epoch swaps
// — including DRILL's Quiver recomputation — land inside the traffic
// window, on both engines, at a barrier. The flap-storm variant packs
// cycles tighter than the RouteDelay so the coalesced-reconvergence path
// is exercised too.
func ReconfigCells() []experiments.RunCfg {
	flap := &experiments.Campaign{
		Name: "conf-flap",
		Sets: []experiments.LinkSet{{ID: "flap", Uplinks: 2}},
		Timeline: []experiments.CampaignAction{
			{AtUs: 150, Op: "fail", Set: "flap"},
			{AtUs: 300, Op: "restore", Set: "flap"},
		},
	}
	return []experiments.RunCfg{
		{
			Topo: confTopo, Scheme: experiments.MustScheme("DRILL"), Seed: 13, Load: 0.5,
			Campaign:   flap,
			RouteDelay: 50 * units.Microsecond,
			Warmup:     100 * units.Microsecond,
			Measure:    400 * units.Microsecond,
		},
		{
			Topo: confTopo, Scheme: experiments.MustScheme("ECMP"), Seed: 14, Load: 0.8, QueueCap: 16,
			Campaign:   experiments.FlapStorm(2, 3),
			RouteDelay: 80 * units.Microsecond,
			Warmup:     100 * units.Microsecond,
			Measure:    400 * units.Microsecond,
		},
	}
}
