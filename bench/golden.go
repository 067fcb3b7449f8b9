package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Golden files hold the expected normalised fingerprint of every workload
// at one seed, one "== <workload>" section each.

func goldenPath(dir string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("seed-%d.txt", seed))
}

// readGolden loads the fingerprints for seed; a seed without a file yields
// nil, so its runs are checked only against each other.
func readGolden(dir string, seed int64) (map[string]string, error) {
	f, err := os.Open(goldenPath(dir, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fps := map[string]string{}
	name := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "== "):
			name = strings.TrimPrefix(line, "== ")
			fps[name] = ""
		case name != "":
			fps[name] += line + "\n"
		}
	}
	return fps, sc.Err()
}

// writeGolden writes the fingerprints of the named workloads, in order.
func writeGolden(dir string, seed int64, names []string, fps map[string]string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Normalised conformance fingerprints (events= removed) of every benchmark\n")
	fmt.Fprintf(&b, "# workload at seed %d. Regenerate: bash bench/run.sh -update-golden -seed %d\n", seed, seed)
	for _, n := range names {
		fmt.Fprintf(&b, "== %s\n%s", n, fps[n])
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, seed), []byte(b.String()), 0o644)
}
