package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// mainArgsEnv, when set, makes the test binary run drillbench's main with
// these space-separated arguments instead of the tests, so a test can
// observe the command's exit status and output from a child process.
const mainArgsEnv = "DRILLBENCH_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"drillbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsUnwritableOut: an -out in a missing directory fails before
// the first cell runs, with one drillbench: line and exit status 1.
// Without -q every cell prints a progress line to stderr, so the one line
// also proves that no cell ran.
func TestRejectsUnwritableOut(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	args := "-out " + filepath.Join(t.TempDir(), "missing", "x.json")
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("drillbench %s: still running after 30s; it ran cells before checking -out", args)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("drillbench %s: %v, want exit status 1; stderr:\n%s", args, err, stderr.String())
	}
	msg := strings.TrimSpace(stderr.String())
	if strings.Contains(msg, "panic:") || strings.Contains(msg, "\n") || !strings.HasPrefix(msg, "drillbench: ") {
		t.Errorf("drillbench %s: want one drillbench: line, got:\n%s", args, msg)
	}
	if stdout.Len() != 0 {
		t.Errorf("drillbench %s: printed %q", args, stdout.String())
	}
}
