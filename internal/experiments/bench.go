package experiments

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"drill/internal/obs"
	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
)

// This file is the perf-trajectory harness: cmd/drillbench runs the
// canonical cells below and writes a BENCH_*.json snapshot (set-up time
// and allocations, event-loop ns/packet and allocs/packet, events/packet,
// peak heap, packet-pool traffic). The committed BENCH_shard.json is the
// point of that trajectory the CI gate diffs against; changes that move a
// column it gates regenerate it.

// BenchSchemaVersion identifies the BENCH_*.json layout.
const BenchSchemaVersion = "drill-bench/v1"

// BenchCell is one canonical benchmark configuration.
type BenchCell struct {
	Name string
	Cfg  RunCfg
}

// BenchCells returns the canonical cells: the fig6a fabric under the two
// schemes whose data-plane work brackets the suite (ECMP's single hash
// lookup, DRILL's sampled-queue comparisons), at a moderate and a high
// load. Small enough that one pass finishes in seconds, big enough that
// each cell dispatches millions of events.
func BenchCells(seed int64) []BenchCell {
	mk := func(name, scheme string, load float64) BenchCell {
		return BenchCell{Name: name, Cfg: RunCfg{
			Topo: fig6Topo(0), Scheme: MustScheme(scheme), Seed: seed, Load: load,
			Warmup:  200 * units.Microsecond,
			Measure: 2 * units.Millisecond,
		}}
	}
	return []BenchCell{
		mk("ecmp-load0.5", "ECMP", 0.5),
		mk("drill-load0.5", "DRILL", 0.5),
		mk("drill-load0.8", "DRILL", 0.8),
	}
}

// BenchShardCells returns the sharded-engine cells: a k=16 fat-tree
// (1024 hosts, 320 switches) under DRILL at 50% load, run sequentially and
// at 4 and 8 shards. The sequential/sharded pairs share a seed, so their
// event counts must match exactly (the conformance suite proves the full
// results do); the loop ns/packet ratio between them is the aggregate
// speedup the shard rows of BENCH_shard.json track. On a single-core
// runner the ratio degenerates to the window protocol's overhead (≈1.0×);
// on the multi-core machines CI uses it is the parallel scaling number.
func BenchShardCells(seed int64) []BenchCell {
	sc := MustScheme("DRILL")
	mk := func(name string, shards int) BenchCell {
		return BenchCell{Name: name, Cfg: RunCfg{
			Topo: func() *topo.Topology {
				return topo.FatTree(topo.FatTreeConfig{K: 16, LinkRate: 10 * units.Gbps})
			},
			Scheme: sc, Seed: seed, Load: 0.5, Shards: shards,
			Warmup:  100 * units.Microsecond,
			Measure: 300 * units.Microsecond,
		}}
	}
	return []BenchCell{
		mk("fattree16-seq", 0),
		mk("fattree16-shards4", 4),
		mk("fattree16-shards8", 8),
	}
}

// BenchCellResult is one cell's measurements.
type BenchCellResult struct {
	Name   string  `json:"name"`
	Scheme string  `json:"scheme"`
	Load   float64 `json:"load"`
	Shards int     `json:"shards,omitempty"` // 0 = sequential engine

	Events uint64 `json:"events"`
	WallNs int64  `json:"wall_ns"`
	Flows  int64  `json:"flows"`
	Sent   int64  `json:"sent"` // packets hosts handed to their NICs

	// Set-up is everything before RunCfg.Hook (topology, routes, tables,
	// fabric, transport, workload), measured as bench/ measures it; the
	// per-packet columns cover only the event loop after it. Packets,
	// unlike events, are a unit of simulated work that an engine change
	// cannot shrink, so these are the columns the gate compares.
	SetupNs      int64   `json:"setup_ns"`
	SetupAllocs  uint64  `json:"setup_allocs"`
	NsPerPkt     float64 `json:"ns_per_pkt"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	EventsPerPkt float64 `json:"events_per_pkt"`

	AllocBytes    uint64 `json:"alloc_bytes"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`

	// PacketGets is pool traffic; PacketAllocs the fresh allocations among
	// it. Gets - Allocs is the allocation volume recycling avoided.
	PacketGets   int64 `json:"packet_gets"`
	PacketAllocs int64 `json:"packet_allocs"`

	// Engine observatory summary, sharded cells only: windows run and
	// packets exchanged across shards (both deterministic per seed), wall
	// time parked at barriers as a share of total shard wall time, and the
	// max/mean per-shard event imbalance. Snapshots without these fields
	// stay diffable: benchdiff gates a column only where the baseline has
	// it.
	Windows         uint64  `json:"windows,omitempty"`
	Exchanged       uint64  `json:"exchanged,omitempty"`
	BarrierStallPct float64 `json:"barrier_stall_pct,omitempty"`
	ShardImbalance  float64 `json:"shard_imbalance,omitempty"`
}

// BenchReport is the BENCH_*.json document.
type BenchReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU is runtime.NumCPU() and GoMaxProcs runtime.GOMAXPROCS(0).
	// Both are recorded because CI containers routinely pin GOMAXPROCS
	// below the host's core count (cgroup quota), and either one alone
	// misstates the machine the wall-clock rates came from. benchdiff
	// warns — never fails — when they differ between snapshots.
	NumCPU     int   `json:"num_cpu"`
	GoMaxProcs int   `json:"gomaxprocs"`
	Seed       int64 `json:"seed"`

	Cells []BenchCellResult `json:"cells"`

	// Provenance self-describes the snapshot: which binary (git revision,
	// dirty flag) produced it, with each cell's own run record (config
	// hash, engine, headline counters). Absent from snapshots older than
	// the field.
	Provenance *obs.Manifest `json:"provenance,omitempty"`
}

// RunBenchCell executes one cell and measures it; it also returns the
// run's provenance record. The heap is settled with a forced GC before the
// run so allocation deltas belong to the run alone. The Hook splits the
// run into set-up and event loop, and from it until the run returns a
// goroutine samples the live heap on a wall-clock ticker, so the
// measurement schedules nothing on the run's schedulers.
func RunBenchCell(c BenchCell) (BenchCellResult, obs.CellSummary) {
	cfg := c.Cfg
	var hookAt time.Time
	var atHook runtime.MemStats
	var peakHeap func() uint64
	cfg.Hook = func(*transport.Registry, units.Time) {
		hookAt = time.Now() //drill:allow simtime wall timing of the bench cell, never a sim timestamp
		runtime.ReadMemStats(&atHook)
		peakHeap = samplePeakHeap()
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	started := time.Now() //drill:allow simtime wall timing of the bench cell, never a sim timestamp
	res := Run(cfg)
	wall := time.Since(started) //drill:allow simtime wall timing of the bench cell, never a sim timestamp
	peak := peakHeap()
	runtime.ReadMemStats(&after)

	out := BenchCellResult{
		Name:   c.Name,
		Scheme: cfg.Scheme.Name,
		Load:   cfg.Load,
		Shards: cfg.Shards,

		Events: res.Events,
		WallNs: wall.Nanoseconds(),
		Flows:  res.Flows,
		Sent:   res.Sent,

		SetupNs:     hookAt.Sub(started).Nanoseconds(),
		SetupAllocs: atHook.Mallocs - before.Mallocs,

		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		PeakHeapBytes: peak,

		PacketGets:   res.PacketGets,
		PacketAllocs: res.PacketAllocs,
	}
	if res.Sent > 0 {
		pkts := float64(res.Sent)
		out.NsPerPkt = float64(wall.Nanoseconds()-out.SetupNs) / pkts
		out.AllocsPerPkt = float64(after.Mallocs-atHook.Mallocs) / pkts
		out.EventsPerPkt = float64(res.Events) / pkts
	}
	if rep := res.EngineRep; rep != nil && len(rep.Shards) > 0 {
		out.Windows = rep.WindowCount
		out.Exchanged = rep.Exchanged()
		out.BarrierStallPct = rep.StallPct()
		out.ShardImbalance = rep.Imbalance()
	}
	return out, res.Prov
}

// samplePeakHeap starts a goroutine that reads the bytes of live and
// not-yet-swept heap objects (what MemStats.HeapAlloc reports, read here
// without stopping the world) every millisecond of wall time. The returned
// function stops it and reports the largest reading, one final read
// included.
func samplePeakHeap() (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	done, peak := make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(time.Millisecond) //drill:allow simtime wall-clock cadence of the heap sampler, never a sim timestamp
		defer tick.Stop()
		var hi uint64
		for {
			select {
			case <-tick.C:
				hi = max(hi, read())
			case <-done:
				peak <- max(hi, read())
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// RunBench executes every canonical cell.
func RunBench(seed int64, progress func(format string, args ...any)) BenchReport {
	rep := BenchReport{
		Schema:     BenchSchemaVersion,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
	rep.Provenance = obs.NewManifest("drillbench", seed)
	for _, c := range append(BenchCells(seed), BenchShardCells(seed)...) {
		r, prov := RunBenchCell(c)
		if progress != nil {
			suffix := ""
			if r.Windows > 0 {
				suffix = fmt.Sprintf("  windows %d  exchanged %d  stall %.1f%%  imb %.2f",
					r.Windows, r.Exchanged, r.BarrierStallPct, r.ShardImbalance)
			}
			progress("%-17s setup %6.3fs %7d allocs  loop %6.0f ns/pkt  %6.3f allocs/pkt  %5.2f ev/pkt  peak %5.1f MB%s",
				r.Name, float64(r.SetupNs)/1e9, r.SetupAllocs, r.NsPerPkt, r.AllocsPerPkt,
				r.EventsPerPkt, float64(r.PeakHeapBytes)/1e6, suffix)
		}
		rep.Cells = append(rep.Cells, r)
		prov.Cell = r.Name
		rep.Provenance.Add(prov)
	}
	return rep
}
