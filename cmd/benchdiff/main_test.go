package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"drill/internal/experiments"
)

// mainArgsEnv, when set, makes the test binary run benchdiff's main with
// these newline-separated arguments instead of the tests, so a test can
// observe the command's exit status and output from a child process.
const mainArgsEnv = "BENCHDIFF_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"benchdiff"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBenchdiff runs benchdiff with args from the repository root, where
// the committed snapshots and the default baseline resolve, and returns
// its standard output, standard error and exit status.
func runBenchdiff(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Dir = filepath.Join("..", "..")
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("benchdiff %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// scaledSnapshot writes BENCH_shard.json with the gated cell columns
// scaled — loop ns per packet by ns, loop allocations per packet and
// set-up allocations by allocs — and returns the file's absolute path.
func scaledSnapshot(t *testing.T, ns, allocs float64) string {
	t.Helper()
	rep, err := experiments.ReadBenchReport(filepath.Join("..", "..", "BENCH_shard.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		c.NsPerPkt *= ns
		c.AllocsPerPkt *= allocs
		c.SetupAllocs = uint64(float64(c.SetupAllocs) * allocs)
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_scaled.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tripledSnapshot is BENCH_shard.json with every gated cell column
// tripled.
func tripledSnapshot(t *testing.T) string { return scaledSnapshot(t, 3, 3) }

// TestDefaultBaselineGates: without -baseline, benchdiff compares against
// BENCH_shard.json, the snapshot CI gates against, so tripled gated
// columns fail -strict with exit status 1.
func TestDefaultBaselineGates(t *testing.T) {
	out, errOut, code := runBenchdiff(t, "-current", tripledSnapshot(t), "-strict")
	if code != 1 || !strings.Contains(out, "REGRESSED") || strings.Contains(out, "baseline lacks") {
		t.Fatalf("benchdiff -strict against the default baseline: exit %d, want 1 with regressions\nstdout:\n%s\nstderr:\n%s",
			code, out, errOut)
	}
}

// TestStrictRefusesBaselineWithoutColumns: BENCH_baseline.json predates
// the gated columns, so -strict cannot judge anything against it. It says
// so in one benchdiff: line and exits 2 rather than reporting no
// regressions; without -strict the diff stays advisory and exits 0.
func TestStrictRefusesBaselineWithoutColumns(t *testing.T) {
	cur := tripledSnapshot(t)
	out, errOut, code := runBenchdiff(t, "-baseline", "BENCH_baseline.json", "-current", cur, "-strict")
	got := strings.TrimSpace(errOut)
	if code != 2 || strings.Contains(got, "\n") || !strings.HasPrefix(got, "benchdiff: ") {
		t.Fatalf("benchdiff -strict against a baseline without the gated columns: exit %d, want 2 and one benchdiff: line\nstdout:\n%s\nstderr:\n%s",
			code, out, errOut)
	}
	if _, errOut, code := runBenchdiff(t, "-baseline", "BENCH_baseline.json", "-current", cur); code != 0 {
		t.Fatalf("benchdiff without -strict: exit %d, want 0\nstderr:\n%s", code, errOut)
	}
}

// TestStrictGatesEventsPerPkt: events per packet are held at equal seed
// like the allocations, so a change that brought back the events settled
// departures removed fails -strict: against a baseline with half the
// committed snapshot's events per packet, the snapshot regresses with exit
// status 1, and against one with twice as many the baseline is stale.
func TestStrictGatesEventsPerPkt(t *testing.T) {
	for _, c := range []struct {
		scale float64
		want  string
	}{{0.5, "REGRESSED"}, {2, "IMPROVED"}} {
		rep, err := experiments.ReadBenchReport(filepath.Join("..", "..", "BENCH_shard.json"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep.Cells {
			rep.Cells[i].EventsPerPkt *= c.scale
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCH_events.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		out, errOut, code := runBenchdiff(t, "-baseline", path, "-current", "BENCH_shard.json", "-strict")
		if code != 1 || !strings.Contains(out, "events_per_pkt") || !strings.Contains(out, c.want) {
			t.Fatalf("benchdiff -strict against a baseline with %gx the events per packet: exit %d, want 1 with events_per_pkt %s\nstdout:\n%s\nstderr:\n%s",
				c.scale, code, c.want, out, errOut)
		}
		if c.want == "IMPROVED" && !strings.Contains(errOut, "events_per_pkt") {
			t.Fatalf("benchdiff -strict did not name events_per_pkt as stale:\n%s", errOut)
		}
	}
}

// TestStrictRatchets: a baseline with twice the committed snapshot's
// allocations is stale — the committed snapshot beats it by half on every
// allocation column — so -strict fails with exit status 1 and names each
// such column with the instruction to commit a new snapshot. Without
// -strict the diff stays advisory.
func TestStrictRatchets(t *testing.T) {
	doubled := scaledSnapshot(t, 1, 2)
	out, errOut, code := runBenchdiff(t, "-baseline", doubled, "-current", "BENCH_shard.json", "-strict")
	if code != 1 || strings.Contains(out, "REGRESSED") || !strings.Contains(out, "IMPROVED") ||
		!strings.Contains(errOut, "setup_allocs") || !strings.Contains(errOut, "commit a new snapshot") {
		t.Fatalf("benchdiff -strict against a baseline with doubled allocations: exit %d, want 1 naming the stale columns\nstdout:\n%s\nstderr:\n%s",
			code, out, errOut)
	}
	if _, errOut, code := runBenchdiff(t, "-baseline", doubled, "-current", "BENCH_shard.json"); code != 0 {
		t.Fatalf("benchdiff without -strict: exit %d, want 0\nstderr:\n%s", code, errOut)
	}
}
