package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"drill/internal/units"
)

func TestWorkersResolve(t *testing.T) {
	ncpu := runtime.NumCPU()
	for _, tc := range []struct {
		n, jobs, want int
	}{
		{0, 100, min(ncpu, 100)},
		{-3, 100, min(ncpu, 100)},
		{1, 100, 1},
		{4, 2, 2},
		{4, 100, 4},
		{4, 0, 1},
	} {
		if got := Workers(tc.n, tc.jobs); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.n, tc.jobs, got, tc.want)
		}
	}
}

func TestFanOrderedResults(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		out := Fan(50, w, func(i int) int { return i * i }, nil)
		for i, v := range out {
			if v != i*i {
				t.Fatalf("w=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestFanDoneSerialized(t *testing.T) {
	// done callbacks may mutate shared state without locking; -race proves
	// the pool serializes them.
	var seen []int
	sum := 0
	Fan(100, 8, func(i int) int { return i },
		func(i int, v int) {
			seen = append(seen, i)
			sum += v
		})
	if len(seen) != 100 || sum != 99*100/2 {
		t.Fatalf("done saw %d cells, sum %d", len(seen), sum)
	}
}

func TestForEachPanicPropagation(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "kapow" {
					t.Errorf("w=%d: recovered %v, want kapow", w, r)
				}
			}()
			ForEach(10, w, func(i int) {
				if i == 5 {
					panic("kapow")
				}
			})
			t.Errorf("w=%d: ForEach returned instead of panicking", w)
		}()
	}
}

// tinySweepCfgs builds a small scheme × seed grid of fast runs for
// parallel-vs-sequential comparisons.
func tinySweepCfgs() []RunCfg {
	var cfgs []RunCfg
	for si, name := range []string{"ECMP", "DRILL", "Random"} {
		sc, _ := SchemeByName(name)
		for seed := int64(1); seed <= 2; seed++ {
			cfgs = append(cfgs, RunCfg{
				Topo: fig6Topo(0), Scheme: sc,
				Seed: seed + int64(si*100), Load: 0.3,
				Warmup:  100 * units.Microsecond,
				Measure: 400 * units.Microsecond,
			})
		}
	}
	return cfgs
}

func TestRunAllMatchesSequential(t *testing.T) {
	cfgs := tinySweepCfgs()
	seq := RunAll(cfgs, 1, nil)
	par := RunAll(cfgs, 4, nil)
	for i := range cfgs {
		s, p := seq[i], par[i]
		if s.FCT.Count() != p.FCT.Count() || s.FCT.Mean() != p.FCT.Mean() {
			t.Errorf("cell %d: FCT (n=%d mean=%v) != (n=%d mean=%v)",
				i, s.FCT.Count(), s.FCT.Mean(), p.FCT.Count(), p.FCT.Mean())
		}
		if s.Events != p.Events {
			t.Errorf("cell %d: events %d != %d", i, s.Events, p.Events)
		}
		if s.Drops != p.Drops || s.Retransmits != p.Retransmits {
			t.Errorf("cell %d: counters diverge", i)
		}
	}
}

func TestRunAllProgressUnderRace(t *testing.T) {
	// Exercise the Progress path concurrently; shared builder, no locks.
	var lines int
	o := Options{Seed: 1, Workers: 4, Progress: func(format string, args ...any) {
		_ = fmt.Sprintf(format, args...)
		lines++
	}}
	cfgs := tinySweepCfgs()
	res := o.runAll(cfgs, func(i int, r *RunResult) {
		o.progress("cell %d flows=%d [%s]", i, r.FCT.Count(), timing(r))
	})
	if lines != len(cfgs) {
		t.Fatalf("progress lines = %d, want %d", lines, len(cfgs))
	}
	for i, r := range res {
		if r == nil || r.Wall <= 0 || r.SimSpan <= 0 {
			t.Fatalf("cell %d missing timing: %+v", i, r)
		}
		if r.SimRate() <= 0 {
			t.Fatalf("cell %d SimRate = %v", i, r.SimRate())
		}
	}
}

// TestRunCellsRowsAndProgress: the cell runner prints one progress line
// per cell, named by the experiment id and the cell's labels, and appends
// each cell's row (its labels, then its statistics) in cell order at any
// worker count.
func TestRunCellsRowsAndProgress(t *testing.T) {
	var cells []cell
	for _, cfg := range tinySweepCfgs() {
		cells = append(cells, cell{[]string{cfg.Scheme.Name, fmt.Sprintf("seed=%d", cfg.Seed)}, cfg})
	}
	named := map[string]int{}
	o := Options{Workers: 3, ExpID: "tiny", Progress: func(format string, args ...any) {
		name, _, _ := strings.Cut(fmt.Sprintf(format, args...), "  flows=")
		named[name]++
	}}
	rep := &Report{}
	res := o.runCells(cells, rep, func(r *RunResult) []string { return []string{fmt.Sprintf("%d", r.Flows)} })
	if len(rep.Rows) != len(cells) {
		t.Fatalf("%d rows, want one per cell (%d)", len(rep.Rows), len(cells))
	}
	for i, c := range cells {
		if n := named["tiny "+strings.Join(c.labels, " ")]; n != 1 {
			t.Errorf("cell %d: %d progress lines named %v, want 1 (got %v)", i, n, c.labels, named)
		}
		want := append(slices.Clone(c.labels), fmt.Sprintf("%d", res[i].Flows))
		if !slices.Equal(rep.Rows[i], want) {
			t.Errorf("row %d = %v, want %v", i, rep.Rows[i], want)
		}
	}
}
