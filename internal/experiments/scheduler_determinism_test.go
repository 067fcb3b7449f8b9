package experiments_test

import (
	"hash/fnv"
	"sync"
	"testing"

	"drill/internal/experiments"
	"drill/internal/experiments/conformance"
	"drill/internal/trace"
	"drill/internal/units"
)

// schedRun is one traced run of a conformance cell, reduced to what the
// scheduler proofs compare: its fingerprint, the tracer's per-kind counts,
// and an FNV-64a of its sampler event stream as CSV.
type schedRun struct {
	fp, counts string
	traceSum   uint64
	samples    int64
}

func runTraced(cfg experiments.RunCfg) schedRun {
	h := fnv.New64a()
	csv := trace.NewCSV(h)
	tr := trace.New(csv, trace.WithKinds(trace.QueueSample, trace.PortUtil))
	cfg.Tracer, cfg.TraceSample = tr, 20*units.Microsecond
	res := experiments.Run(cfg)
	if err := csv.Close(); err != nil {
		panic(err)
	}
	return schedRun{
		fp: conformance.Fingerprint(res), counts: conformance.TraceLine(tr),
		traceSum: h.Sum64(), samples: tr.Count(trace.QueueSample),
	}
}

// schedPairs runs every conformance cell once on the production stack
// (timing wheel + per-port event batching) and once on the legacy
// reference stack (plain binary heap, one event per packet per hop), both
// traced, and is shared by the two tests below.
var schedPairs = sync.OnceValue(func() [][2]schedRun {
	cells := conformance.Cells()
	pairs := make([][2]schedRun, len(cells))
	for i, cfg := range cells {
		legacy := cfg
		legacy.LegacyScheduler = true
		pairs[i] = [2]schedRun{runTraced(cfg), runTraced(legacy)}
	}
	return pairs
})

// TestSchedulerIsByteIdentical holds the timing-wheel scheduler and the
// fabric's per-port event batching to their core contract: they are
// representation changes, not behaviour changes. Every conformance cell —
// the scheme × seed sweep, a drop-heavy cell, a mid-run uplink failure and
// the reconfiguration campaigns, so loss, timeout, dead-link drain and
// reroute paths are all compared — must produce the same fingerprint on
// both stacks.
func TestSchedulerIsByteIdentical(t *testing.T) {
	for i, p := range schedPairs() {
		if wheel, legacy := p[0].fp, p[1].fp; wheel != legacy {
			t.Errorf("cell %d: wheel run differs from legacy scheduler:\n--- wheel\n%s--- legacy\n%s", i, wheel, legacy)
		}
	}
}

// TestSchedulerIsByteIdenticalQTrace extends the proof to the sampler
// trace: the stream of queue-depth and port-utilization samples — every
// sample's timestamp, port and value — must match across the two stacks,
// which pins the observer/daemon event classes (excluded from Executed,
// never keeping Run alive) to identical dispatch points.
func TestSchedulerIsByteIdenticalQTrace(t *testing.T) {
	for i, p := range schedPairs() {
		wheel, legacy := p[0], p[1]
		if wheel.samples == 0 {
			t.Errorf("cell %d: sampler recorded nothing: %s", i, wheel.counts)
		}
		if wheel.traceSum != legacy.traceSum {
			t.Errorf("cell %d: trace stream under the legacy scheduler differs from the wheel's:\n%s%s",
				i, wheel.counts, legacy.counts)
		}
	}
}
