package conformance

import (
	"flag"
	"fmt"
	"hash/fnv"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"drill/internal/experiments"
	"drill/internal/obs"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// shardCounts is the full sweep the acceptance criteria name. Shards=1
// exercises the whole window machinery (barriers, outbox exchange, fold)
// with no actual partitioning — the cheapest way to catch a protocol bug
// that even a single shard would trip.
var shardCounts = []int{1, 2, 4, 8}

// -shards narrows the sweep to one count, so CI can fan the matrix out
// across jobs: go test ./internal/experiments/conformance -args -shards 4
var shardOverride = flag.Int("shards", 0,
	"test only this shard count against the sequential engine (0 = full sweep)")

func counts() []int {
	if *shardOverride > 0 {
		return []int{*shardOverride}
	}
	return shardCounts
}

// engineCounts are the engines the instrumented setting runs on: sequential
// (0) plus every shard count, cut to shards=2 under -short, where the race
// detector slows each instrumented run most; the full-length determinism
// legs cover the other counts.
func engineCounts() []int {
	if testing.Short() && *shardOverride == 0 {
		return []int{0, 2}
	}
	return append([]int{0}, counts()...)
}

// obsScope labels every observed run's series.
const obsScope = `conf="cell"`

// variant is one executed setting of a cell, with whatever
// instrumentation it carried.
type variant struct {
	res      *experiments.RunResult
	tr       *trace.Tracer // sampler-kind tracer, when traced
	traceSum uint64        // FNV-64a of the traced event stream as CSV
	reg      *obs.Registry // metrics registry, when observed
}

// runWith executes cfg with freshly attached instrumentation: traced adds
// a tracer restricted to the sampler kinds (the only kinds a sharded run
// may enable) plus a 20µs trace sampler; observed adds a metrics registry
// with a 50µs snapshotter.
func runWith(cfg experiments.RunCfg, traced, observed bool) *variant {
	v := &variant{}
	h := fnv.New64a()
	var csv *trace.CSVSink
	if traced {
		csv = trace.NewCSV(h)
		v.tr = trace.New(csv, trace.WithKinds(trace.QueueSample, trace.PortUtil))
		cfg.Tracer, cfg.TraceSample = v.tr, 20*units.Microsecond
	}
	if observed {
		v.reg = obs.NewRegistry(8)
		cfg.Obs, cfg.ObsScope, cfg.ObsSample = v.reg, obsScope, 50*units.Microsecond
	}
	v.res = experiments.Run(cfg)
	if csv != nil {
		if err := csv.Close(); err != nil {
			panic(err)
		}
		v.traceSum = h.Sum64()
	}
	return v
}

// cell is one row of the matrix. It memoizes the runs other settings are
// compared against — the plain sequential reference, the traced run and
// the observed run — and its instrumented run on each engine, so each
// (cell, setting) pair runs once whichever of the matrix's tests -run
// selects.
type cell struct {
	name                  string
	cfg                   experiments.RunCfg
	reconfig              bool // one of ReconfigCells
	ref, traced, observed *variant
	engine                map[int]*variant
}

// matrix is the rows of the invariance matrix, one per cell of Cells(),
// shared by every test of this file.
var matrix = sync.OnceValue(func() []*cell {
	all := Cells()
	firstReconfig := len(all) - len(ReconfigCells())
	var cells []*cell
	for i, cfg := range all {
		name := fmt.Sprintf("cell %d (%s seed=%d)", i, cfg.Scheme.Name, cfg.Seed)
		if cfg.Campaign != nil {
			name += " campaign=" + cfg.Campaign.Name
		}
		cells = append(cells, &cell{name: name, cfg: cfg, reconfig: i >= firstReconfig, engine: map[int]*variant{}})
	}
	return cells
})

func (c *cell) reference() *variant {
	if c.ref == nil {
		c.ref = runWith(c.cfg, false, false)
	}
	return c.ref
}

func (c *cell) tracedRun() *variant {
	if c.traced == nil {
		c.traced = runWith(c.cfg, true, false)
	}
	return c.traced
}

func (c *cell) observedRun() *variant {
	if c.observed == nil {
		c.observed = runWith(c.cfg, false, true)
	}
	return c.observed
}

// engineRun is c on n shards (0 = sequential) with metrics (engine
// telemetry included) and sampler tracing attached.
func (c *cell) engineRun(n int) *variant {
	v, ok := c.engine[n]
	if !ok {
		cfg := c.cfg
		cfg.Shards = n
		v = runWith(cfg, true, true)
		c.engine[n] = v
	}
	return v
}

// forEngines calls check on every cell's instrumented run on each engine
// of engineCounts, one subtest per engine.
func forEngines(t *testing.T, check func(t *testing.T, c *cell, n int, v *variant)) {
	for _, n := range engineCounts() {
		t.Run(strconv.Itoa(n), func(t *testing.T) {
			for _, c := range matrix() {
				check(t, c, n, c.engineRun(n))
			}
		})
	}
}

// same fails t unless v's results are byte-identical to the reference's.
func (c *cell) same(t *testing.T, setting string, v *variant) {
	t.Helper()
	if want, got := Fingerprint(c.reference().res), Fingerprint(v.res); got != want {
		t.Errorf("%s: %s changed the results:\n--- reference\n%s--- %s\n%s",
			c.name, setting, want, setting, got)
	}
}

// engineFamilies matches the engine observatory's series, which are
// engine-shaped by design, so engine comparisons strip them.
var engineFamilies = regexp.MustCompile(`(?m)^drill_(shard|window|sched)_.*\n`)

// findPoint returns the value of a scalar series in a snapshot, or -1.
func findPoint(s *obs.Snapshot, name, labels string) float64 {
	for i := range s.Points {
		if s.Points[i].Name == name && s.Points[i].Labels == labels {
			return s.Points[i].Value
		}
	}
	return -1
}

// sumPoints sums every series of a family across its label sets and
// reports how many series it found.
func sumPoints(s *obs.Snapshot, name string) (sum float64, series int) {
	for i := range s.Points {
		if s.Points[i].Name == name {
			sum += s.Points[i].Value
			series++
		}
	}
	return sum, series
}

// TestInvarianceMatrix is the one invariance harness. Every cell of
// Cells() — the scheme × seed sweep, a drop-heavy cell, a mid-run uplink
// failure, the RR, WCMP and Presto cells, and the fail → restore
// reconfiguration campaigns — runs its
// plain sequential reference once, and every setting that must not change
// the output is held fingerprint-identical to it:
//
//   - Pool: the reference itself, which must get real reuse out of the
//     packet pool;
//   - Shards/N: the sharded engine at N shards (-shards narrows N);
//   - Obs: the metrics stack, whose counters must match the RunResult;
//   - Trace: the sampler tracer, which must record samples.
//
// The instrumented setting — metrics, engine telemetry and sampler tracing
// together, on each engine of engineCounts — runs once per (cell, engine)
// and is checked by the tests below it: TestEngineTelemetryIsByteIdentical
// (fingerprint and shard counters), TestShardedObsCellMatches and
// TestShardedTracedCellMatches (obs lines and trace stream across
// engines), TestShardedLossyAndFailureCells and
// TestShardedReconfigurationCells (the adversarial paths stay live on
// every engine). Below the run, the scheduler and the fabric's port rings
// are held to the heap-only oracle in internal/sim
// (TestWheelMatchesHeapReference), and pooled packets to hand-built ones
// in internal/fabric (TestPooledMatchesHandBuilt).
func TestInvarianceMatrix(t *testing.T) {
	cells := matrix()

	t.Run("Pool", func(t *testing.T) {
		for _, c := range cells {
			if ref := c.reference().res; ref.PacketGets == 0 || ref.PacketAllocs >= ref.PacketGets {
				t.Errorf("%s: pooling avoided nothing (allocs=%d gets=%d)",
					c.name, ref.PacketAllocs, ref.PacketGets)
			}
		}
	})

	t.Run("Shards", func(t *testing.T) {
		for _, n := range counts() {
			t.Run(strconv.Itoa(n), func(t *testing.T) {
				for _, c := range cells {
					cfg := c.cfg
					cfg.Shards = n
					c.same(t, fmt.Sprintf("shards=%d", n), runWith(cfg, false, false))
				}
			})
		}
	})

	t.Run("Obs", func(t *testing.T) {
		for _, c := range cells {
			v := c.observedRun()
			c.same(t, "Obs", v)
			// A stack that is byte-identical because it is dead proves
			// nothing: the counters must have observed the run.
			last := v.reg.Latest()
			if last == nil {
				t.Errorf("%s: snapshotter never published", c.name)
				continue
			}
			delivered := findPoint(last, "drill_fabric_delivered_total", obsScope)
			if delivered <= 0 {
				t.Errorf("%s: delivered counter = %v, want > 0", c.name, delivered)
			}
			// Every delivered packet was queued at least twice: at its NIC
			// and at its leaf's host port.
			if enq := findPoint(last, "drill_fabric_enqueued_total", obsScope); enq < 2*delivered {
				t.Errorf("%s: enqueued counter = %v, want >= 2 x delivered (%v)", c.name, enq, delivered)
			}
			if drops, _ := sumPoints(last, "drill_fabric_drops_total"); int64(drops) != v.res.Drops {
				t.Errorf("%s: fabric drop counters sum to %v, RunResult says %d", c.name, drops, v.res.Drops)
			}
			if retx := findPoint(last, "drill_transport_retransmits_total", obsScope); int64(retx) != v.res.Retransmits {
				t.Errorf("%s: retransmit counter = %v, RunResult says %d", c.name, retx, v.res.Retransmits)
			}
			if ooo := findPoint(last, "drill_transport_out_of_order_total", obsScope); int64(ooo) != v.res.OutOfOrder {
				t.Errorf("%s: out-of-order counter = %v, RunResult says %d", c.name, ooo, v.res.OutOfOrder)
			}
			if rto := findPoint(last, "drill_transport_timeouts_total", obsScope); int64(rto) != v.res.Timeouts {
				t.Errorf("%s: timeout counter = %v, RunResult says %d", c.name, rto, v.res.Timeouts)
			}
		}
	})

	t.Run("Trace", func(t *testing.T) {
		for _, c := range cells {
			v := c.tracedRun()
			c.same(t, "Trace", v)
			if v.tr.Count(trace.QueueSample) == 0 || v.tr.Count(trace.PortUtil) == 0 {
				t.Errorf("%s: sampler recorded nothing: %s", c.name, TraceLine(v.tr))
			}
		}
	})
}

// TestEngineTelemetryIsByteIdentical is the engine observatory's
// observe-never-steer proof: metrics, engine telemetry and sampler tracing
// together may not change a single result byte on any engine, and the
// telemetry must be live — every shard's events counter registered and their
// sum equal to the engine report's shard total.
func TestEngineTelemetryIsByteIdentical(t *testing.T) {
	forEngines(t, func(t *testing.T, c *cell, n int, v *variant) {
		setting := fmt.Sprintf("instrumented at shards=%d", n)
		c.same(t, setting, v)
		last := v.reg.Latest()
		if last == nil {
			t.Errorf("%s: %s: snapshotter never published", c.name, setting)
			return
		}
		events, series := sumPoints(last, "drill_shard_events_total")
		if n == 0 {
			if series != 0 {
				t.Errorf("%s: sequential run has %d drill_shard_events_total series, want none", c.name, series)
			}
			return
		}
		rep := v.res.EngineRep
		if rep == nil || len(rep.Shards) == 0 {
			t.Errorf("%s: %s: no engine report", c.name, setting)
			return
		}
		// Partitioning clamps to the leaf count, so expect the effective
		// shard count the engine actually ran.
		if series != len(rep.Shards) {
			t.Errorf("%s: %s: %d drill_shard_events_total series, want %d", c.name, setting, series, len(rep.Shards))
		}
		// The counters exclude the global scheduler's events, so the
		// reference is the report's shard total, which must stay within the
		// run's own.
		if uint64(events) != rep.TotalEvents() {
			t.Errorf("%s: %s: shard events counters sum to %v, report says %d", c.name, setting, events, rep.TotalEvents())
		}
		if rep.TotalEvents() == 0 || rep.TotalEvents() > v.res.Events {
			t.Errorf("%s: %s: shard event total %d vs run events %d", c.name, setting, rep.TotalEvents(), v.res.Events)
		}
	})
}

// TestShardedObsCellMatches holds the metrics stack — histograms observed
// inside shard context, counters derived from shard-domain sums at
// barriers, and the global snapshotter — to the same snapshots on every
// engine: every retained snapshot of each instrumented run, mid-run
// barriers included, must equal the Obs setting's on the sequential
// engine. The engine families are engine-shaped by design and stripped
// from both sides.
func TestShardedObsCellMatches(t *testing.T) {
	forEngines(t, func(t *testing.T, c *cell, n int, v *variant) {
		got, want := v.reg.Ring(), c.observedRun().reg.Ring()
		if len(got) == 0 || len(got) != len(want) {
			t.Errorf("%s: shards=%d: %d snapshots retained, sequential run has %d", c.name, n, len(got), len(want))
			return
		}
		for i := range got {
			g := engineFamilies.ReplaceAllString(ObsLines(got[i]), "")
			w := engineFamilies.ReplaceAllString(ObsLines(want[i]), "")
			if g != w {
				t.Errorf("%s: shards=%d: snapshot %d of %d: obs lines differ from the sequential run's:\n--- sequential\n%s--- shards=%d\n%s",
					c.name, n, i+1, len(got), w, n, g)
				return
			}
		}
	})
}

// TestShardedTracedCellMatches holds the sampler tracer to the same event
// stream on every engine: each instrumented run's trace must equal the
// Trace setting's on the sequential engine, sample for sample.
func TestShardedTracedCellMatches(t *testing.T) {
	forEngines(t, func(t *testing.T, c *cell, n int, v *variant) {
		if want := c.tracedRun(); v.traceSum != want.traceSum {
			t.Errorf("%s: shards=%d: trace stream differs from the sequential run's:\n%s%s",
				c.name, n, TraceLine(want.tr), TraceLine(v.tr))
		}
	})
}

// TestShardedLossyAndFailureCells keeps the adversarial cells adversarial:
// drops and reconvergence cross the paths a barrier bug would corrupt
// first, so the drop-heavy and mid-run failure cells must drop packets on
// every engine. Selection is by shape, not position, so growing Cells()
// can't silently rotate which cells this covers.
func TestShardedLossyAndFailureCells(t *testing.T) {
	ran := 0
	for _, c := range matrix() {
		if !c.reconfig && (c.cfg.QueueCap != 0 || c.cfg.Campaign != nil) {
			ran++
		}
	}
	if ran < 2 {
		t.Fatalf("expected at least 2 adversarial cells, found %d", ran)
	}
	forEngines(t, func(t *testing.T, c *cell, n int, v *variant) {
		if !c.reconfig && (c.cfg.QueueCap != 0 || c.cfg.Campaign != nil) && v.res.Drops == 0 {
			t.Errorf("%s: shards=%d: adversarial cell dropped nothing", c.name, n)
		}
	})
}

// TestShardedReconfigurationCells keeps the epoch-swap proof live: each
// reconfiguration campaign must apply its fail and restore reconvergences
// inside the run on every engine, so the matrix compares real epoch swaps
// — link vector, forwarding tables, Quiver — landing at a barrier.
func TestShardedReconfigurationCells(t *testing.T) {
	forEngines(t, func(t *testing.T, c *cell, n int, v *variant) {
		if c.reconfig && v.res.Epochs < 3 {
			t.Errorf("%s: shards=%d: applied %d epochs, want ≥3 (construction + fail + restore reconvergences)",
				c.name, n, v.res.Epochs)
		}
	})
}

// FuzzShardedVsSequential randomizes topology size, seed, load, and shard
// count, and requires byte-identity on every input. Runs as a seeded
// regression grid under `go test`; `go test -fuzz=FuzzShardedVsSequential`
// explores further (nightly CI gives it five minutes).
func FuzzShardedVsSequential(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint8(3), int64(1), uint8(30), uint8(2))
	f.Add(uint8(4), uint8(6), uint8(4), int64(7), uint8(70), uint8(3))
	f.Add(uint8(3), uint8(8), uint8(2), int64(42), uint8(50), uint8(8))
	f.Add(uint8(1), uint8(2), uint8(5), int64(99), uint8(90), uint8(5))
	f.Fuzz(func(t *testing.T, spines, leaves, hosts uint8, seed int64, loadPct, shards uint8) {
		sp := 1 + int(spines)%4 // 1..4 spines
		lv := 2 + int(leaves)%7 // 2..8 leaves
		hp := 2 + int(hosts)%5  // 2..6 hosts per leaf
		load := 0.1 + float64(loadPct%90)/100.0
		nsh := 1 + int(shards)%8 // Partition clamps to the leaf count
		sc, _ := experiments.SchemeByName([]string{"ECMP", "DRILL", "Random"}[int(seed%3+3)%3])
		cfg := experiments.RunCfg{
			Topo: func() *topo.Topology {
				return topo.LeafSpine(topo.LeafSpineConfig{
					Spines: sp, Leaves: lv, HostsPerLeaf: hp,
					HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps,
				})
			},
			Scheme: sc, Seed: seed, Load: load,
			Warmup:  50 * units.Microsecond,
			Measure: 200 * units.Microsecond,
		}
		want := Fingerprint(experiments.Run(cfg))
		cfg.Shards = nsh
		if got := Fingerprint(experiments.Run(cfg)); got != want {
			t.Errorf("spines=%d leaves=%d hosts=%d seed=%d load=%.2f: shards=%d diverges from sequential:\n--- sequential\n%s--- shards=%d\n%s",
				sp, lv, hp, seed, load, nsh, want, nsh, got)
		}
	})
}
