package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainArgsEnv, when set, makes the test binary run drillsim's main with
// these space-separated arguments instead of the tests, so a test can
// observe the command's exit status and output from a child process.
const mainArgsEnv = "DRILLSIM_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"drillsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadLoads: a load that is not a positive, finite number is a
// one-line error naming -loads and exit status 2, never a table of empty
// cells at a negative load (or a scheduler panic).
func TestRejectsBadLoads(t *testing.T) {
	for _, args := range []string{
		"-exp fig10 -loads -0.2",
		"-exp fig10 -loads 0",
		"-exp fig6a -loads 0.5,-1",
		"-exp fig6a -loads +Inf",
		"-exp fig6a -loads NaN",
		"-exp fig6a -loads 0.5,x",
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("drillsim %s: %v, want exit status 2; output:\n%s", args, err, out.String())
			continue
		}
		got := strings.TrimSpace(out.String())
		if strings.Contains(got, "\n") || strings.Contains(got, "panic:") || !strings.HasPrefix(got, "drillsim: -loads: ") {
			t.Errorf("drillsim %s: want one drillsim: -loads line, got:\n%s", args, got)
		}
	}
}

// TestRejectsNonPositiveSampling holds the sampling flags to the same
// contract as -reps, -workers and -shards: a non-positive interval is a
// one-line error and exit status 2, not a scheduler panic (-metrics-sample)
// or a silently missing sampler (-trace-sample).
func TestRejectsNonPositiveSampling(t *testing.T) {
	for _, args := range []string{
		"-exp fig6a -metrics-sample -1us",
		"-exp fig6a -metrics-sample 0s",
		"-exp qtrace -trace-sample -1us",
		"-exp qtrace -trace-sample 0s",
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stderr, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("drillsim %s: %v, want exit status 2; output:\n%s", args, err, stderr.String())
			continue
		}
		out := strings.TrimSpace(stderr.String())
		flag := strings.Fields(args)[2]
		if strings.Contains(out, "\n") || !strings.Contains(out, flag+" must be positive") {
			t.Errorf("drillsim %s: want one line naming %s, got:\n%s", args, flag, out)
		}
	}
}

// TestRejectsBadFlags: every flag is checked before anything runs or any
// file is opened. A -scale outside [0, 1] (NaN included), an unknown
// -format, an unknown -exp id or a campaign action past the simulator's
// clock is one drillsim: line on stderr and exit status 2, with nothing on
// stdout — no sweep run first, no scheduler panic, and no -trace file
// truncated.
func TestRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.csv")
	const keep = "existing trace\n"
	if err := os.WriteFile(tracePath, []byte(keep), 0o644); err != nil {
		t.Fatal(err)
	}
	campaignPath := filepath.Join(dir, "late.json")
	const late = `{"name": "late", "sets": [{"id": "x", "uplinks": 1}],
		"timeline": [{"atUs": 1e300, "op": "fail", "set": "x"}]}`
	if err := os.WriteFile(campaignPath, []byte(late), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range []string{
		"-exp fig6a -scale NaN",
		"-exp fig6a -scale -Inf",
		"-exp fig6a -scale -1",
		"-exp fig6a -scale 5",
		"-exp fig6a -format xml",
		"-exp fig6a,nope",
		"-exp nope -trace " + tracePath,
		"-exp fig6c -campaign @" + campaignPath,
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("drillsim %s: %v, want exit status 2; stderr:\n%s", args, err, stderr.String())
			continue
		}
		got := strings.TrimSpace(stderr.String())
		if strings.Contains(got, "\n") || strings.Contains(got, "panic:") || !strings.HasPrefix(got, "drillsim: ") {
			t.Errorf("drillsim %s: want one drillsim: line, got:\n%s", args, got)
		}
		if stdout.Len() != 0 {
			t.Errorf("drillsim %s: wrote to stdout:\n%s", args, stdout.String())
		}
	}
	if b, err := os.ReadFile(tracePath); err != nil || string(b) != keep {
		t.Errorf("rejected run touched the -trace file: %q, %v", b, err)
	}
}
