package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainArgsEnv, when set, makes the test binary run drillstab's main with
// these space-separated arguments instead of the tests, so a test can
// observe the command's exit status and output from a child process.
const mainArgsEnv = "DRILLSTAB_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"drillstab"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadFlags: a flag outside the model's range is one drillstab:
// line on stderr and exit status 2, before the header is printed — not a
// panic (-d 0, -mem -1, -n 0), a NaN throughput (-m 0, -slots below ten),
// or a trace of inadmissible rates labelled admissible (-load with
// m·load above 0.8, or not a positive number).
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range []string{
		"-d 0",
		"-mem -1",
		"-n 0",
		"-n 1",
		"-m 0",
		"-slots 5",
		"-slots -10",
		"-load 0.5",
		"-load 5",
		"-load 0",
		"-load NaN",
		"-load +Inf",
		"-m 8 -load 0.11",
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("drillstab %s: %v, want exit status 2; stderr:\n%s", args, err, stderr.String())
			continue
		}
		msg := strings.TrimSpace(stderr.String())
		if strings.Contains(msg, "panic:") || strings.Contains(msg, "\n") || !strings.HasPrefix(msg, "drillstab: ") {
			t.Errorf("drillstab %s: want one drillstab: line, got:\n%s", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("drillstab %s: printed %q before rejecting its flags", args, stdout.String())
		}
	}
}
