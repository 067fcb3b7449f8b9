package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchFixture() *BenchReport {
	return &BenchReport{
		Schema: BenchSchemaVersion, Seed: 1,
		Cells: []BenchCellResult{
			{Name: "ecmp-load0.5", NsPerPkt: 2000, AllocsPerPkt: 0.10, SetupAllocs: 50_000, Events: 1200, Sent: 100, EventsPerPkt: 12},
			{Name: "drill-load0.5", NsPerPkt: 2500, AllocsPerPkt: 0.20, SetupAllocs: 60_000, Events: 2400, Sent: 200, EventsPerPkt: 12},
			{Name: "fattree16-shards4", Shards: 4, NsPerPkt: 4000, AllocsPerPkt: 0.11, SetupAllocs: 400_000,
				Events: 17_600, Sent: 1000, EventsPerPkt: 17.6, Windows: 30_000, Exchanged: 1800},
		},
	}
}

// findDiff pulls one finding out of the diff by cell and metric.
func findDiff(t *testing.T, d *BenchDiff, cell, metric string) BenchFinding {
	t.Helper()
	for _, f := range d.Findings {
		if f.Cell == cell && f.Metric == metric {
			return f
		}
	}
	t.Fatalf("no finding for %s/%s in %+v", cell, metric, d.Findings)
	return BenchFinding{}
}

func TestDiffBenchCleanPass(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()
	// 8% slower, 5% more loop allocations and 0.5% more set-up
	// allocations per packet: inside every tolerance.
	cur.Cells[0].NsPerPkt *= 1.08
	cur.Cells[0].AllocsPerPkt *= 1.05
	cur.Cells[0].SetupAllocs += base.Cells[0].SetupAllocs / 200
	d := DiffBench(base, cur)
	if d.Regressions != 0 {
		t.Fatalf("clean diff found %d regressions: %s", d.Regressions, d.Format())
	}
	if !strings.Contains(d.Format(), "no regressions") {
		t.Errorf("format lacks the verdict line:\n%s", d.Format())
	}
}

// TestDiffBenchCPUMismatchWarns pins the machine-mismatch behaviour: a
// baseline from a different CPU count produces a warning finding, never a
// regression — CI containers must not fail the gate just for being
// smaller than the baseline machine.
func TestDiffBenchCPUMismatchWarns(t *testing.T) {
	base := benchFixture()
	base.NumCPU, base.GoMaxProcs = 16, 16
	cur := benchFixture()
	cur.NumCPU, cur.GoMaxProcs = 16, 1 // cgroup-quota shape
	d := DiffBench(base, cur)
	if d.Regressions != 0 {
		t.Fatalf("CPU mismatch counted as regression: %s", d.Format())
	}
	f := findDiff(t, d, "machine", "cpus")
	if f.Regressed || !strings.Contains(f.Note, "different machines") {
		t.Errorf("machine finding should be an unregressed warning, got %+v", f)
	}
	// Identical machines: no warning row at all.
	same := DiffBench(base, base)
	for _, f := range same.Findings {
		if f.Cell == "machine" {
			t.Errorf("same-machine diff emitted a machine warning: %+v", f)
		}
	}
}

func TestDiffBenchMarkdown(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()
	cur.Cells[0].NsPerPkt *= 2
	md := DiffBench(base, cur).FormatMarkdown()
	for _, want := range []string{
		"| cell | metric | baseline | current | delta | verdict |",
		"| ecmp-load0.5 | ns_per_pkt | 2000 | 4000 | +100.0% | **REGRESSED** |",
		"**REGRESSED**",
		"**Verdict: 1 regression(s)**",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown output lacks %q:\n%s", want, md)
		}
	}
	if clean := DiffBench(base, base).FormatMarkdown(); !strings.Contains(clean, "**Verdict: no regressions**") {
		t.Errorf("clean markdown output lacks the verdict line:\n%s", clean)
	}
}

func TestDiffBenchFlagsRegressions(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()
	cur.Cells[0].NsPerPkt = base.Cells[0].NsPerPkt * 1.5 // +50% > 10% tol
	cur.Cells[1].AllocsPerPkt = base.Cells[1].AllocsPerPkt * 2
	d := DiffBench(base, cur)
	if !findDiff(t, d, "ecmp-load0.5", "ns_per_pkt").Regressed {
		t.Error("+50% ns/pkt not flagged")
	}
	if !findDiff(t, d, "drill-load0.5", "allocs_per_pkt").Regressed {
		t.Error("doubled allocs/pkt not flagged")
	}
	if d.Regressions != 2 {
		t.Errorf("regressions = %d, want 2:\n%s", d.Regressions, d.Format())
	}
	// Faster and leaner is never a regression.
	fast := benchFixture()
	fast.Cells[0].NsPerPkt /= 2
	fast.Cells[0].AllocsPerPkt /= 2
	fast.Cells[0].SetupAllocs /= 2
	fast.Cells[2].Windows /= 2
	fast.Cells[2].Exchanged /= 2
	if d := DiffBench(base, fast); d.Regressions != 0 {
		t.Errorf("a 2x improvement was flagged:\n%s", d.Format())
	}
}

// TestDiffBenchRatchet: a deterministic column that beats the baseline by
// its tolerance or more is Improved — a stale baseline — while ns/pkt,
// which depends on the machine, never is. A 9% fall in loop allocations
// per packet passes, 10% ratchets; set-up allocations ratchet at 1%, and
// events per packet, windows and exchanged at any fall, at equal seed
// only.
func TestDiffBenchRatchet(t *testing.T) {
	base := benchFixture()
	for _, c := range []struct {
		fall float64
		want bool
	}{{0.09, false}, {0.10, true}, {0.5, true}} {
		cur := benchFixture()
		cur.Cells[2].AllocsPerPkt *= 1 - c.fall
		f := findDiff(t, DiffBench(base, cur), "fattree16-shards4", "allocs_per_pkt")
		if f.Improved != c.want || f.Regressed {
			t.Errorf("allocs/pkt -%.0f%%: improved=%v, want %v (%+v)", c.fall*100, f.Improved, c.want, f)
		}
	}
	cur := benchFixture()
	cur.Cells[0].NsPerPkt /= 2
	cur.Cells[1].SetupAllocs -= base.Cells[1].SetupAllocs / 100
	cur.Cells[1].EventsPerPkt /= 2
	cur.Cells[2].Windows--
	cur.Cells[2].Exchanged--
	d := DiffBench(base, cur)
	if f := findDiff(t, d, "ecmp-load0.5", "ns_per_pkt"); f.Improved {
		t.Errorf("halved ns/pkt ratcheted: %+v", f)
	}
	for _, w := range []struct{ cell, metric string }{
		{"drill-load0.5", "setup_allocs"},
		{"drill-load0.5", "events_per_pkt"},
		{"fattree16-shards4", "windows"},
		{"fattree16-shards4", "exchanged"},
	} {
		f := findDiff(t, d, w.cell, w.metric)
		if !f.Improved || f.Regressed || !strings.Contains(f.Note, "commit a new snapshot") {
			t.Errorf("%s/%s beat the baseline but is not Improved with a note: %+v", w.cell, w.metric, f)
		}
	}
	if d.Regressions != 0 || d.Improvements != 4 {
		t.Errorf("regressions %d, improvements %d, want 0 and 4:\n%s", d.Regressions, d.Improvements, d.Format())
	}
	if out := d.Format(); !strings.Contains(out, "IMPROVED") || !strings.Contains(out, "4 improvement(s) to record in a new snapshot") {
		t.Errorf("format lacks the improvements:\n%s", out)
	}
	cur.Seed = 2
	if d := DiffBench(base, cur); d.Improvements != 1 {
		t.Errorf("seed-bound counts ratcheted across seeds: %d improvements, want 1 (set-up):\n%s", d.Improvements, d.Format())
	}
	// At equal seed any rise in events per packet regresses.
	cur = benchFixture()
	cur.Cells[0].EventsPerPkt *= 1.001
	if f := findDiff(t, DiffBench(base, cur), "ecmp-load0.5", "events_per_pkt"); !f.Regressed || f.Improved {
		t.Errorf("events/pkt +0.1%% at equal seed did not regress: %+v", f)
	}
}

// TestDiffBenchFewerEventsSamePacketCost is the case the per-packet gate
// exists for: an engine that dispatches a third fewer events for the same
// packets at the same ns/pkt halves no rate the gate reads, so it passes,
// and the event drop is a gain the snapshot must record.
func TestDiffBenchFewerEventsSamePacketCost(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()
	for i := range cur.Cells {
		c := &cur.Cells[i]
		c.Events -= c.Events / 3
		c.EventsPerPkt = float64(c.Events) / float64(c.Sent)
	}
	d := DiffBench(base, cur)
	if d.Regressions != 0 {
		t.Fatalf("fewer events at equal ns/pkt regressed:\n%s", d.Format())
	}
	ev := findDiff(t, d, "fattree16-shards4", "events_per_pkt")
	if ev.Regressed || !ev.Improved || ev.Current != 11.734 {
		t.Errorf("event drop should be an improvement to 11.734 events/pkt, got %+v", ev)
	}
}

// TestDiffBenchFatTreeAllocsPerPkt pins the allocation gate at its bound:
// a 10% rise in the fat-tree's loop allocations per packet fails, 9%
// passes, and set-up allocations fail at a 1% rise.
func TestDiffBenchFatTreeAllocsPerPkt(t *testing.T) {
	base := benchFixture()
	for _, c := range []struct {
		rise float64
		want bool
	}{{0.09, false}, {0.10, true}, {0.25, true}} {
		cur := benchFixture()
		cur.Cells[2].AllocsPerPkt *= 1 + c.rise
		f := findDiff(t, DiffBench(base, cur), "fattree16-shards4", "allocs_per_pkt")
		if f.Regressed != c.want {
			t.Errorf("allocs/pkt +%.0f%%: regressed=%v, want %v (%+v)", c.rise*100, f.Regressed, c.want, f)
		}
	}
	cur := benchFixture()
	cur.Cells[2].SetupAllocs += base.Cells[2].SetupAllocs / 100
	if !findDiff(t, DiffBench(base, cur), "fattree16-shards4", "setup_allocs").Regressed {
		t.Error("+1% set-up allocations not flagged")
	}
}

// TestDiffBenchShardCounts: at equal seed a sharded cell may not run more
// windows or exchange more packets; at a different seed the counts are not
// comparable and are not gated.
func TestDiffBenchShardCounts(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()
	cur.Cells[2].Windows++
	cur.Cells[2].Exchanged++
	d := DiffBench(base, cur)
	for _, m := range []string{"windows", "exchanged"} {
		if !findDiff(t, d, "fattree16-shards4", m).Regressed {
			t.Errorf("a rise in %s at equal seed not flagged", m)
		}
	}
	cur.Seed = 2
	if d := DiffBench(base, cur); d.Regressions != 0 {
		t.Errorf("shard counts gated across seeds:\n%s", d.Format())
	}
}

// TestDiffBenchOldBaselineNotGated: a baseline written before the
// per-packet columns existed is reported against, never gated on them.
func TestDiffBenchOldBaselineNotGated(t *testing.T) {
	base := benchFixture()
	for i := range base.Cells {
		base.Cells[i].NsPerPkt, base.Cells[i].AllocsPerPkt, base.Cells[i].SetupAllocs = 0, 0, 0
	}
	d := DiffBench(base, benchFixture())
	if d.Regressions != 0 {
		t.Fatalf("columns absent from the baseline were gated:\n%s", d.Format())
	}
	if f := findDiff(t, d, "ecmp-load0.5", "ns_per_pkt"); !strings.Contains(f.Note, "baseline lacks") {
		t.Errorf("missing baseline column not noted: %+v", f)
	}
}

func TestDiffBenchCellDrift(t *testing.T) {
	base := benchFixture()
	cur := benchFixture()
	cur.Cells = cur.Cells[:1]
	cur.Cells[0].Events, cur.Cells[0].EventsPerPkt = 999, 9.99 // deterministic column drift at equal seed
	d := DiffBench(base, cur)
	if !findDiff(t, d, "drill-load0.5", "present").Regressed {
		t.Error("missing cell not flagged")
	}
	ev := findDiff(t, d, "ecmp-load0.5", "events_per_pkt")
	if ev.Regressed || !ev.Improved || !strings.Contains(ev.Note, "commit a new snapshot") {
		t.Errorf("fewer events per packet at equal seed should ask for a new snapshot, got %+v", ev)
	}
}

// TestReadBenchReportRoundTrips pins the file interface benchdiff and CI
// rely on — including that the committed baseline still parses.
func TestReadBenchReportRoundTrips(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_x.json")
	if err := os.WriteFile(path, []byte(`{"schema":"drill-bench/v1","seed":3,"cells":[],"micro":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 3 {
		t.Errorf("seed = %d, want 3", rep.Seed)
	}
	if _, err := ReadBenchReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file did not error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"schema":"other/v9"}`), 0o644)
	if _, err := ReadBenchReport(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch not rejected: %v", err)
	}

	if base, err := ReadBenchReport("../../BENCH_baseline.json"); err != nil {
		t.Errorf("committed baseline does not parse: %v", err)
	} else if len(base.Cells) == 0 {
		t.Error("committed baseline has no cells")
	}
}
