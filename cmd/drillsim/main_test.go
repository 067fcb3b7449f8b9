package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
