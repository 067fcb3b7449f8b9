package experiments

import (
	"testing"

	"drill/internal/fabric"
	"drill/internal/lb"
	"drill/internal/units"
)

// aliases keeping the claims readable.
type fabricBalancer = fabric.Balancer

func lbNewDRILL() *lb.DRILL { return lb.NewDRILL() }

// These tests lock in the paper's directional claims on fast, tiny
// configurations: they are the regression guard that the reproduction
// keeps producing the right *shape* (who wins), independent of absolute
// numbers. Each uses pooled seeds to damp noise.

func claimRun(t *testing.T, scheme string, load float64, seeds int, mut func(*RunCfg)) *RunResult {
	t.Helper()
	sc, ok := SchemeByName(scheme)
	if !ok {
		t.Fatalf("no scheme %q", scheme)
	}
	var merged *RunResult
	for s := 0; s < seeds; s++ {
		cfg := RunCfg{
			Topo: fig6Topo(0), Scheme: sc, Seed: int64(s + 1), Load: load,
			Warmup:  200 * units.Microsecond,
			Measure: 1500 * units.Microsecond,
		}
		if mut != nil {
			mut(&cfg)
		}
		res := Run(cfg)
		if merged == nil {
			merged = res
		} else {
			merged.FCT.AddDist(res.FCT)
			merged.Drops += res.Drops
			for h := range merged.Hops.QueueingNs {
				merged.Hops.QueueingNs[h] += res.Hops.QueueingNs[h]
				merged.Hops.Packets[h] += res.Hops.Packets[h]
				merged.Hops.Drops[h] += res.Hops.Drops[h]
			}
		}
	}
	return merged
}

func TestClaimDRILLCutsUpstreamQueueing(t *testing.T) {
	skipSlow(t, "slow directional claim")
	// §4 / Fig. 6c: DRILL's benefit is concentrated in hop-1 queues.
	ecmp := claimRun(t, "ECMP", 0.8, 2, nil)
	dr := claimRun(t, "DRILL", 0.8, 2, nil)
	e1, d1 := ecmp.Hops.MeanQueueing(1), dr.Hops.MeanQueueing(1)
	if d1 >= e1 {
		t.Fatalf("DRILL hop1 queueing %.2fus not below ECMP %.2fus", d1, e1)
	}
	if e1 < 1.5*d1 {
		t.Fatalf("DRILL hop1 advantage too small: ECMP %.2fus vs DRILL %.2fus", e1, d1)
	}
}

func TestClaimDRILLEliminatesCoreDrops(t *testing.T) {
	skipSlow(t, "slow directional claim")
	// Fig. 14c's essence: under load, ECMP loses packets at hops 1-2;
	// DRILL's balancing nearly eliminates those drops.
	ecmp := claimRun(t, "ECMP", 0.8, 2, nil)
	dr := claimRun(t, "DRILL", 0.8, 2, nil)
	eCore := ecmp.Hops.Drops[1] + ecmp.Hops.Drops[4]
	dCore := dr.Hops.Drops[1] + dr.Hops.Drops[4]
	if eCore == 0 {
		t.Skip("no core drops under ECMP in this configuration")
	}
	if dCore*10 > eCore {
		t.Fatalf("DRILL core drops %d not ≪ ECMP %d", dCore, eCore)
	}
}

func TestClaimQueueBalanceOrdering(t *testing.T) {
	skipSlow(t, "slow directional claim")
	// Fig. 2: ECMP ≫ Random > DRILL(2,1) in queue-length STDV.
	stdv := func(scheme string) float64 {
		res := claimRun(t, scheme, 0.8, 1, func(c *RunCfg) {
			c.SampleQueues = true
			c.Topo = stdvTopo(0)
			c.DrainLimit = 1 * units.Millisecond
		})
		return res.UplinkSTDV
	}
	e, r := stdv("ECMP"), stdv("Random")
	d := func() float64 {
		res := claimRun(t, "DRILL w/o shim", 0.8, 1, func(c *RunCfg) {
			c.SampleQueues = true
			c.Topo = stdvTopo(0)
			c.DrainLimit = 1 * units.Millisecond
		})
		return res.UplinkSTDV
	}()
	if !(e > 5*r) {
		t.Errorf("ECMP STDV %.2f not ≫ Random %.2f", e, r)
	}
	if !(d < r) {
		t.Errorf("DRILL STDV %.2f not below Random %.2f", d, r)
	}
}

func TestClaimShimRemovesSpuriousRetransmits(t *testing.T) {
	skipSlow(t, "slow directional claim")
	// §3.3: with the shim, reordering no longer reaches TCP, so
	// retransmissions collapse to loss-driven ones only.
	noShim := claimRun(t, "DRILL w/o shim", 0.8, 1, nil)
	shim := claimRun(t, "DRILL", 0.8, 1, nil)
	if shim.Retransmits*2 > noShim.Retransmits {
		t.Fatalf("shim did not cut retransmits: %d vs %d",
			shim.Retransmits, noShim.Retransmits)
	}
}

func TestClaimECMPNeverReorders(t *testing.T) {
	skipSlow(t, "slow directional claim")
	res := claimRun(t, "ECMP", 0.8, 1, nil)
	if got := res.WireReorders.FracAtLeast(1); got != 0 {
		t.Fatalf("ECMP wire-reordered %.3f of flows; must be 0", got)
	}
}

func TestClaimQuiverNotWorseUnderFailure(t *testing.T) {
	skipSlow(t, "slow directional claim")
	// §3.4: with one failed link, Quiver-DRILL must not lose meaningfully
	// to naive per-packet DRILL that ignores the asymmetry (pooled seeds).
	naiveScheme := Scheme{Name: "naive", New: func() fabricBalancer { return lbNewDRILL() }}
	var naive, quiver *RunResult
	for s := 0; s < 3; s++ {
		cfgN := RunCfg{Topo: FailedUplinks(fig6Topo(0), 1, int64(s+1)), Scheme: naiveScheme,
			Seed: int64(s + 1), Load: 0.7, Warmup: 200 * units.Microsecond,
			Measure: 1500 * units.Microsecond}
		cfgQ := cfgN
		cfgQ.Scheme = MustScheme("DRILL w/o shim")
		rn, rq := Run(cfgN), Run(cfgQ)
		if naive == nil {
			naive, quiver = rn, rq
		} else {
			naive.FCT.AddDist(rn.FCT)
			quiver.FCT.AddDist(rq.FCT)
		}
	}
	if quiver.FCT.Mean() > naive.FCT.Mean()*1.2 {
		t.Fatalf("quiver DRILL mean %.3fms much worse than naive %.3fms",
			quiver.FCT.Mean(), naive.FCT.Mean())
	}
}
