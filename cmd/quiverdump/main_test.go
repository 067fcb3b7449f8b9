package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainArgsEnv, when set, makes the test binary run quiverdump's main with
// these space-separated arguments instead of the tests, so a test can
// observe the command's exit status and output from a child process.
const mainArgsEnv = "QUIVERDUMP_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"quiverdump"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadInput holds every flag to one line on stderr and exit
// status 2: a -pair without a destination, a -fail naming a spine the
// fabric lacks, a -fail whose later entry names a missing leaf or a link
// an earlier entry already failed, a -pair of one leaf with itself, and a
// fabric too small to hold a leaf pair. Nothing reaches stdout, not even
// the failed lines of the entries before the bad one.
func TestRejectsBadInput(t *testing.T) {
	for _, args := range []string{
		"-pair L3",
		"-fail L0-S9",
		"-fail L0-S-1",
		"-fail L0-S0,L9-S0",
		"-fail L0-S0,L0-S0",
		"-topo hetero -spines 4 -leaves 4 -fail L0-S0,L0-S0,L0-S0",
		"-fail L0-S0 -pair L9-L1",
		"-pair L3-L3",
		"-spines -1",
		"-leaves 1",
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("quiverdump %s: %v, want exit status 2; stderr:\n%s", args, err, stderr.String())
			continue
		}
		msg := strings.TrimSpace(stderr.String())
		if strings.Contains(msg, "panic:") || strings.Contains(msg, "\n") || !strings.HasPrefix(msg, "quiverdump: ") {
			t.Errorf("quiverdump %s: want one quiverdump: line, got:\n%s", args, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("quiverdump %s: printed %q before rejecting its input", args, stdout.String())
		}
	}
}
