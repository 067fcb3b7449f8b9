package experiments

import (
	"testing"

	"drill/internal/metrics"
	"drill/internal/obs"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// TestUplinkSTDVPerLeaf: qtrace's STDV is taken within each leaf's
// uplinks, as Fig. 2's is. Two leaves whose uplinks are equal within the
// leaf (4,4 and 0,0) but differ between leaves are perfectly balanced, so
// every slice must read 0; pooling both leaves into one STDV reads 2.
func TestUplinkSTDVPerLeaf(t *testing.T) {
	tp := topo.LeafSpine(topo.LeafSpineConfig{Spines: 2, Leaves: 2, HostsPerLeaf: 1})
	const bins = 4
	warmup, measure := 100*units.Microsecond, 400*units.Microsecond
	binW := measure / bins
	var events []trace.Event
	for tick := int64(0); tick < bins; tick++ {
		at := warmup + units.Time(tick)*binW + binW/2
		for li, leaf := range tp.Leaves {
			qlen := int32(4)
			if li == 1 {
				qlen = 0
			}
			for _, c := range tp.OutAll(leaf) {
				if tp.Nodes[tp.Chan(c).To].Kind != topo.Spine {
					continue
				}
				events = append(events, trace.Event{
					T: at, Kind: trace.QueueSample, Hop: uint8(metrics.Hop1),
					Port: int32(c), Seq: tick, QLen: qlen,
				})
			}
		}
	}
	if len(events) != bins*4 {
		t.Fatalf("built %d samples, want %d (2 leaves × 2 uplinks per tick)", len(events), bins*4)
	}
	for b, v := range uplinkSTDVSeries(tp, events, warmup, measure, bins) {
		if v != 0 {
			t.Errorf("slice %d: STDV %v, want 0 (each leaf's uplinks are equal)", b, v)
		}
	}
}

// TestQTraceHonoursSweepOptions: qtrace's cells run through the sweep
// runner like every other experiment's, so the manifest, the engine sink
// and Shards reach them, and the sharded report equals the sequential one.
func TestQTraceHonoursSweepOptions(t *testing.T) {
	skipSlow(t, "runs qtrace twice")
	qtrace := Get("qtrace")
	seq := qtrace.Run(Options{Seed: 7, Workers: 1})
	man := obs.NewManifest("qtrace", 7)
	var engines []string
	sharded := qtrace.Run(Options{Seed: 7, Workers: 1, ExpID: "qtrace", Shards: 2, Manifest: man,
		EngineSink: func(_ int, rep *obs.EngineReport) { engines = append(engines, rep.Engine) }})
	if len(man.Cells) != 3 {
		t.Errorf("manifest has %d rows, want 3 (one per scheme)", len(man.Cells))
	}
	if len(engines) != 3 {
		t.Errorf("engine sink saw %d reports, want 3", len(engines))
	}
	for i, e := range engines {
		if e != "sharded/2" {
			t.Errorf("cell %d ran on %q, want sharded/2", i, e)
		}
	}
	if got, want := sharded.Format(), seq.Format(); got != want {
		t.Errorf("sharded qtrace report differs from sequential:\n%s\nvs\n%s", got, want)
	}
}
