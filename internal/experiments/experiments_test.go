package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"drill/internal/units"
)

// designIDs are the experiment ids DESIGN.md's per-experiment index
// promises; the registry must cover all of them.
var designIDs = []string{
	"fig2a", "fig2b", "fig3",
	"fig6a", "fig6b", "fig6c",
	"fig7", "fig8", "fig9", "fig10",
	"fig11a", "fig11bc", "fig12", "fig13", "fig14",
	"table1", "stability", "engines", "idealdrill",
	"ablvis", "ablgran", "ablasym",
	"qtrace",
}

// skipSlow skips diagnostic probes and full-scale sweeps in -short mode
// and under the race detector, whose slowdown pushes them past the
// default test timeout; the quick pool/determinism tests keep the
// concurrent paths covered in both configurations.
func skipSlow(t *testing.T, why string) {
	t.Helper()
	if testing.Short() {
		t.Skip(why + " (short mode)")
	}
	if raceEnabled {
		t.Skip(why + " (race detector)")
	}
}

func TestRegistryCoversDesign(t *testing.T) {
	for _, id := range designIDs {
		if Get(id) == nil {
			t.Errorf("experiment %q from DESIGN.md not registered", id)
		}
	}
	if got := len(All()); got != len(designIDs) {
		t.Errorf("registry has %d experiments, DESIGN.md lists %d", got, len(designIDs))
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("All() not sorted: %s >= %s", all[i-1].ID, all[i].ID)
		}
	}
}

func TestReportFormat(t *testing.T) {
	r := &Report{ID: "x", Title: "demo", Columns: []string{"a", "bbbb"}}
	r.AddRow("1", "2")
	r.AddRow("333", "4")
	r.Note("hello %d", 7)
	out := r.Format()
	for _, want := range []string{"== x — demo ==", "a    bbbb", "333  4", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

func TestLerpHelpers(t *testing.T) {
	if got := lerpInt(4, 16, 0); got != 4 {
		t.Errorf("lerpInt(0) = %d", got)
	}
	if got := lerpInt(4, 16, 1); got != 16 {
		t.Errorf("lerpInt(1) = %d", got)
	}
	if got := lerpInt(4, 16, 0.5); got != 10 {
		t.Errorf("lerpInt(0.5) = %d", got)
	}
	if got := lerpInt(0, 0, 0.5); got != 1 {
		t.Errorf("lerpInt floor = %d, want 1", got)
	}
	if got := lerpTime(units.Millisecond, 3*units.Millisecond, 0.5); got != 2*units.Millisecond {
		t.Errorf("lerpTime = %v", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{Scale: 5}
	o.defaults()
	if o.Scale != 1 {
		t.Errorf("scale clamp = %v", o.Scale)
	}
	if o.Seed != 1 {
		t.Errorf("seed default = %d", o.Seed)
	}
	o2 := Options{Scale: -3}
	o2.defaults()
	if o2.Scale != 0 {
		t.Errorf("scale clamp low = %v", o2.Scale)
	}
	// loads override
	if got := o.loads([]float64{0.5}); len(got) != 1 || got[0] != 0.5 {
		t.Errorf("loads default = %v", got)
	}
	o.Loads = []float64{0.1, 0.2}
	if got := o.loads([]float64{0.5}); len(got) != 2 {
		t.Errorf("loads override = %v", got)
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"ECMP", "CONGA", "Presto", "DRILL", "DRILL w/o shim",
		"Random", "RR", "WCMP", "per-flow DRILL", "flowcell-DRILL", "Presto before shim"} {
		if _, ok := SchemeByName(name); !ok {
			t.Errorf("scheme %q missing", name)
		}
	}
	if _, ok := SchemeByName("nope"); ok {
		t.Error("bogus scheme found")
	}
	if sc, _ := SchemeByName("DRILL"); sc.Shim == 0 {
		t.Error("DRILL scheme must carry the shim")
	}
	if sc, _ := SchemeByName("DRILL w/o shim"); sc.Shim != 0 {
		t.Error("DRILL w/o shim must not carry the shim")
	}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "unknown scheme nope") {
			t.Errorf("MustScheme(\"nope\") panicked with %v, want the unknown name", r)
		}
	}()
	MustScheme("nope")
}

func TestRunMinimal(t *testing.T) {
	// One tiny end-to-end run through the harness: nonzero flows, bounded
	// util, consistent counters.
	sc, _ := SchemeByName("DRILL")
	res := Run(RunCfg{
		Topo:    fig6Topo(0),
		Scheme:  sc,
		Seed:    3,
		Load:    0.3,
		Warmup:  100 * units.Microsecond,
		Measure: 500 * units.Microsecond,
	})
	if res.FCT.Count() == 0 {
		t.Fatal("no measured flows")
	}
	if res.CoreUtil <= 0 || res.CoreUtil > 1.5 {
		t.Fatalf("implausible core util %v", res.CoreUtil)
	}
	if res.Events == 0 {
		t.Fatal("no events executed")
	}
}

// TestIdleRunHasNoEvents: a run without traffic simulates nothing, so it
// dispatches no event on either engine. Its measure-window reads are
// observer events and count nothing.
func TestIdleRunHasNoEvents(t *testing.T) {
	for _, shards := range []int{0, 2} {
		res := Run(RunCfg{
			Topo: campaignTopo, Scheme: MustScheme("ECMP"), Seed: 1, Shards: shards,
			Warmup: 100 * units.Microsecond, Measure: 200 * units.Microsecond,
			DrainLimit: 100 * units.Microsecond,
		})
		if res.Events != 0 {
			t.Errorf("shards=%d: an idle run dispatched %d events, want 0", shards, res.Events)
		}
	}
}

// TestSampleQueuesAddsNoEvents: the §3.2.3 sampler only reads queues, so
// turning it on changes no event count, on either engine, while it does
// measure something.
func TestSampleQueuesAddsNoEvents(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := RunCfg{
			Topo: campaignTopo, Scheme: MustScheme("ECMP"), Seed: 4, Load: 0.6, Shards: shards,
			Warmup: 100 * units.Microsecond, Measure: 300 * units.Microsecond,
		}
		plain := Run(cfg)
		cfg.SampleQueues = true
		sampled := Run(cfg)
		if sampled.Events != plain.Events {
			t.Errorf("shards=%d: sampling queues moved events %d → %d", shards, plain.Events, sampled.Events)
		}
		if sampled.UplinkSTDV == 0 {
			t.Errorf("shards=%d: the sampler measured no uplink imbalance", shards)
		}
	}
}

func TestRunWithFailures(t *testing.T) {
	sc, _ := SchemeByName("DRILL")
	res := Run(RunCfg{
		Topo:    FailedUplinks(fig6Topo(0), 2, 3),
		Scheme:  sc,
		Seed:    3,
		Load:    0.2,
		Warmup:  100 * units.Microsecond,
		Measure: 500 * units.Microsecond,
	})
	if res.FCT.Count() == 0 {
		t.Fatal("no flows completed under failures")
	}
}

func TestStabilityExperimentShape(t *testing.T) {
	rep := Get("stability").Run(Options{Seed: 1})
	if len(rep.Rows) != 5 {
		t.Fatalf("stability rows = %d", len(rep.Rows))
	}
	// Memoryless rows must show much larger final queues than memory rows.
	var memless, withMem float64
	for _, row := range rep.Rows {
		q := parseF(t, row[2])
		if strings.Contains(row[0], "(1,0)") {
			memless = q
		}
		if row[0] == "DRILL(1,1)" {
			withMem = q
		}
	}
	if memless < 100*withMem {
		t.Fatalf("Theorem 1 not visible: memoryless=%v memory=%v", memless, withMem)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}
