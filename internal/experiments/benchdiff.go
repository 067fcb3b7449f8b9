package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Bench regression guard: DiffBench compares a fresh BenchReport against
// the committed baseline with tolerances wide enough to absorb runner
// noise but tight enough to catch a real hot-path regression. CI runs it
// with -strict as a blocking gate: a regression turns the build red.
//
// Every gated column is per packet or per set-up, never per event: a
// packet is simulated work no engine change can remove, so a change that
// dispatches fewer events for the same packets reads as progress, not as
// a lower event rate. The events themselves are a cost the engine chose
// (one per hop since departures settle when read), so at equal seed the
// events per packet are held like the allocations: a rise regresses. Wall
// clock columns still depend on the machine that produced each snapshot,
// so the diff reports — as warnings, never failures — when the two
// snapshots disagree on CPU count or GOMAXPROCS. The allocation columns
// are deterministic up to GC timing, and the event and shard-protocol
// counts exactly, so they are compared as they stand.
//
// The deterministic columns also ratchet: a current snapshot that beats
// the baseline on one by more than its tolerance (any fall, for events
// per packet, windows and exchanged at equal seed) marks the finding
// Improved, and -strict fails until the gain is recorded in a new
// committed snapshot. Otherwise a baseline left behind by later gains
// would let them be lost again unseen. ns/packet depends on the machine
// and stays one-sided.

const (
	// BenchNsPerPktTol is the relative rise in event-loop wall time per
	// packet that regresses a cell. 10% clears run-to-run noise on
	// dedicated hardware; a shared VM can exceed it, which calls for a
	// snapshot taken on the gate's own runner class, not a wider bound.
	BenchNsPerPktTol = 0.10
	// BenchAllocsPerPktTol is the relative rise in event-loop allocations
	// per packet that regresses a cell. The loop's steady state is a few
	// hundredths of an allocation per packet, so a tenth more is a
	// structural change, not jitter.
	BenchAllocsPerPktTol = 0.10
	// BenchSetupAllocsTol is the relative rise in set-up allocations that
	// regresses a cell: set-up is deterministic code over a fixed
	// topology, so 1% is already a real change.
	BenchSetupAllocsTol = 0.01
)

// BenchFinding is one compared metric of one cell.
type BenchFinding struct {
	Cell     string  `json:"cell"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Delta is relative (a fraction of baseline) for ns/packet,
	// allocs/packet and set-up allocations, absolute for events/packet and
	// the shard protocol counts.
	Delta     float64 `json:"delta"`
	Regressed bool    `json:"regressed"`
	// Improved marks a deterministic column that beats the baseline by
	// more than its tolerance: the baseline is stale.
	Improved bool   `json:"improved,omitempty"`
	Note     string `json:"note,omitempty"`
}

// BenchDiff is the full comparison document.
type BenchDiff struct {
	BaselineSeed int64          `json:"baseline_seed"`
	CurrentSeed  int64          `json:"current_seed"`
	Findings     []BenchFinding `json:"findings"`
	Regressions  int            `json:"regressions"`
	// Improvements counts Improved findings, which -strict also fails on.
	Improvements int `json:"improvements"`
	// Unchecked counts gated cell columns the baseline lacks: reported,
	// but judged against nothing.
	Unchecked int `json:"unchecked"`
}

// relativeMetrics are the columns whose Delta is a fraction of baseline.
var relativeMetrics = map[string]bool{
	"ns_per_pkt":     true,
	"allocs_per_pkt": true,
	"setup_allocs":   true,
}

// DiffBench compares current against baseline cell by cell (matched by
// name).
func DiffBench(baseline, current *BenchReport) *BenchDiff {
	d := &BenchDiff{BaselineSeed: baseline.Seed, CurrentSeed: current.Seed}
	add := func(f BenchFinding) {
		if f.Regressed {
			d.Regressions++
		}
		if f.Improved {
			d.Improvements++
			f.Note = staleNote
		}
		d.Findings = append(d.Findings, f)
	}
	// rise gates a relative increase: tol or more (to float precision)
	// regresses. A deterministic column also ratchets: a fall of tol or
	// more is an improvement the baseline must record. A baseline without
	// the column (zero) is reported, never gated.
	rise := func(cell, metric string, base, cur, tol float64, deterministic bool) {
		f := BenchFinding{Cell: cell, Metric: metric, Baseline: base, Current: cur}
		if base > 0 {
			f.Delta = (cur - base) / base
			f.Regressed = f.Delta >= tol-1e-9
			f.Improved = deterministic && f.Delta <= -tol+1e-9
		} else {
			f.Note = "baseline lacks this column"
			d.Unchecked++
		}
		add(f)
	}
	sameSeed := baseline.Seed == current.Seed

	// Machine mismatch is a warning, not a regression: the wall-clock
	// columns are only meaningful between snapshots from comparable
	// hardware, and CI containers often differ from the baseline machine.
	if baseline.NumCPU != current.NumCPU || baseline.GoMaxProcs != current.GoMaxProcs {
		add(BenchFinding{Cell: "machine", Metric: "cpus",
			Baseline: float64(baseline.NumCPU), Current: float64(current.NumCPU),
			Note: fmt.Sprintf("snapshots from different machines (num_cpu %d/gomaxprocs %d vs %d/%d): ns/pkt deltas are advisory",
				baseline.NumCPU, baseline.GoMaxProcs, current.NumCPU, current.GoMaxProcs)})
	}

	cur := make(map[string]BenchCellResult, len(current.Cells))
	for _, c := range current.Cells {
		cur[c.Name] = c
	}
	for _, b := range baseline.Cells {
		c, ok := cur[b.Name]
		if !ok {
			add(BenchFinding{Cell: b.Name, Metric: "present", Regressed: true,
				Note: "cell missing from current report"})
			continue
		}
		delete(cur, b.Name)

		// Wall time gates slower only: faster is reported for the trend
		// line, since it depends on the machine. Allocations gate both ways.
		rise(b.Name, "ns_per_pkt", b.NsPerPkt, c.NsPerPkt, BenchNsPerPktTol, false)
		rise(b.Name, "allocs_per_pkt", b.AllocsPerPkt, c.AllocsPerPkt, BenchAllocsPerPktTol, true)
		rise(b.Name, "setup_allocs", float64(b.SetupAllocs), float64(c.SetupAllocs), BenchSetupAllocsTol, true)

		if !sameSeed {
			continue
		}
		// Shard-protocol counts are pure functions of seed and partition:
		// at equal seed any rise is the engine doing more barrier work for
		// the same simulation, and any fall a gain to record.
		for _, m := range []struct {
			name     string
			base, cu uint64
		}{
			{"windows", b.Windows, c.Windows},
			{"exchanged", b.Exchanged, c.Exchanged},
		} {
			if m.base == 0 {
				continue
			}
			add(BenchFinding{Cell: b.Name, Metric: m.name,
				Baseline: float64(m.base), Current: float64(m.cu),
				Delta: float64(m.cu) - float64(m.base), Regressed: m.cu > m.base, Improved: m.cu < m.base})
		}
		// Events per packet are a pure function of the seed and the
		// engine: at equal seed any rise is the engine dispatching more for
		// the same packets, and any fall a gain to record.
		if b.EventsPerPkt > 0 {
			add(BenchFinding{Cell: b.Name, Metric: "events_per_pkt",
				Baseline: b.EventsPerPkt, Current: c.EventsPerPkt, Delta: c.EventsPerPkt - b.EventsPerPkt,
				Regressed: c.EventsPerPkt > b.EventsPerPkt*(1+1e-9),
				Improved:  c.EventsPerPkt < b.EventsPerPkt*(1-1e-9)})
		}
	}
	for name := range cur {
		add(BenchFinding{Cell: name, Metric: "present",
			Note: "new cell, no baseline"})
	}
	return d
}

// staleNote is an Improved finding's note.
const staleNote = "beats the baseline by more than its tolerance: commit a new snapshot"

// verdict is a finding's verdict column.
func (f BenchFinding) verdict() string {
	switch {
	case f.Regressed:
		return "REGRESSED"
	case f.Improved:
		return "IMPROVED"
	}
	return "ok"
}

// formatDelta renders a finding's delta: a percentage for relative
// columns, a signed number otherwise.
func (f BenchFinding) formatDelta() string {
	if relativeMetrics[f.Metric] {
		return fmt.Sprintf("%+.1f%%", f.Delta*100)
	}
	return fmt.Sprintf("%+.3g", f.Delta)
}

// tolerances is the verdict line's summary of the gate.
func tolerances() string {
	return fmt.Sprintf("ns/pkt tol +%.0f%%, allocs/pkt tol ±%.0f%%, setup allocs tol ±%.0f%%, events/pkt, windows and exchanged must match",
		BenchNsPerPktTol*100, BenchAllocsPerPktTol*100, BenchSetupAllocsTol*100)
}

// summary is the verdict line's count of regressions and stale columns.
func (d *BenchDiff) summary() string {
	s := "no regressions"
	if d.Regressions > 0 {
		s = fmt.Sprintf("%d regression(s)", d.Regressions)
	}
	if d.Improvements > 0 {
		s += fmt.Sprintf(", %d improvement(s) to record in a new snapshot", d.Improvements)
	}
	return s
}

// Format renders the diff as an aligned text table with a verdict line.
func (d *BenchDiff) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench diff (baseline seed %d, current seed %d)\n", d.BaselineSeed, d.CurrentSeed)
	fmt.Fprintf(&b, "%-17s %-22s %14s %14s %10s  %s\n", "cell", "metric", "baseline", "current", "delta", "verdict")
	for _, f := range d.Findings {
		fmt.Fprintf(&b, "%-17s %-22s %14.6g %14.6g %10s  %s", f.Cell, f.Metric, f.Baseline, f.Current, f.formatDelta(), f.verdict())
		if f.Note != "" {
			fmt.Fprintf(&b, " (%s)", f.Note)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "verdict: %s (%s)\n", d.summary(), tolerances())
	return b.String()
}

// FormatMarkdown renders the diff as a GitHub-flavored markdown table,
// the shape CI appends to $GITHUB_STEP_SUMMARY.
func (d *BenchDiff) FormatMarkdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Bench diff (baseline seed %d, current seed %d)\n\n", d.BaselineSeed, d.CurrentSeed)
	b.WriteString("| cell | metric | baseline | current | delta | verdict |\n")
	b.WriteString("|------|--------|---------:|--------:|------:|---------|\n")
	for _, f := range d.Findings {
		verdict := f.verdict()
		if verdict != "ok" {
			verdict = "**" + verdict + "**"
		}
		fmt.Fprintf(&b, "| %s | %s | %.6g | %.6g | %s | %s |\n",
			f.Cell, f.Metric, f.Baseline, f.Current, f.formatDelta(), verdict)
		if f.Note != "" {
			fmt.Fprintf(&b, "| | | | | | %s |\n", f.Note)
		}
	}
	fmt.Fprintf(&b, "\n**Verdict: %s** (%s)\n", d.summary(), tolerances())
	return b.String()
}

// ReadBenchReport loads a BENCH_*.json snapshot.
func ReadBenchReport(path string) (*BenchReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != BenchSchemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, BenchSchemaVersion)
	}
	return &rep, nil
}
