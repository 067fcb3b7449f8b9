// Command drillstab demonstrates the §3.2.4 stability results on the
// standalone M×N switch model: Theorem 1 (DRILL(d,0) is unstable for
// admissible traffic with heterogeneous service rates) and Theorem 2
// (DRILL(d,m≥1) is stable with 100% throughput). It prints a queue-growth
// trace so the divergence is visible, not just asserted.
//
// Usage:
//
//	drillstab [-m 4] [-n 8] [-load 0.2] [-slots 200000] [-d 1] [-mem 1]
//	drillstab -compare      # run the memoryless and memory policies side by side
package main

import (
	"flag"
	"fmt"
	"os"

	"drill/internal/queueing"
)

func main() {
	var (
		m       = flag.Int("m", 4, "forwarding engines")
		n       = flag.Int("n", 8, "output queues")
		load    = flag.Float64("load", 0.2, "per-engine arrival probability per slot")
		slots   = flag.Int("slots", 200_000, "time slots to simulate")
		d       = flag.Int("d", 1, "random samples per decision")
		mem     = flag.Int("mem", 1, "memory units per engine")
		seed    = flag.Int64("seed", 1, "random seed")
		compare = flag.Bool("compare", false, "run DRILL(d,0) and DRILL(d,mem) side by side")
	)
	flag.Parse()
	switch {
	case *m < 1:
		exitf("-m must be >= 1 (got %d)", *m)
	case *n < 2:
		exitf("-n must be >= 2 (got %d)", *n)
	case *d < 1:
		exitf("-d must be >= 1 (got %d)", *d)
	case *mem < 0:
		exitf("-mem must be >= 0 (got %d)", *mem)
	case *slots < 10:
		exitf("-slots must be >= 10 (got %d)", *slots)
	case !(*load > 0) || float64(*m)*(*load) > 0.8:
		// Theorem1Rates keeps the rates admissible only while m·load ≤ 0.8.
		exitf("-load must be positive with -m × -load <= 0.8 (got -m %d, -load %g)", *m, *load)
	}

	arr, svc := queueing.Theorem1Rates(*m, *n, *load)
	fmt.Printf("M=%d engines, N=%d queues, Theorem-1 adversarial rates (admissible)\n", *m, *n)
	fmt.Printf("arrivals: %.3v\nservice:  %.3v\n\n", arr, svc)

	run := func(dd, mm int) {
		s := queueing.New(*m, *n, dd, mm, arr, svc, *seed)
		fmt.Printf("DRILL(%d,%d):\n  %-10s %-12s %-12s %-10s\n", dd, mm,
			"slots", "total queue", "throughput", "Lyapunov V")
		step := *slots / 10
		for i := 0; i < 10; i++ {
			s.Run(step)
			thr := float64(s.TotalServed) / float64(s.TotalArrived)
			fmt.Printf("  %-10d %-12d %-12.4f %-10.3g\n",
				s.Slots, s.TotalQueue(), thr, s.Lyapunov())
		}
		fmt.Println()
	}

	if *compare {
		run(*d, 0)
		run(*d, *mem)
		fmt.Println("Theorem 1: without memory the queue grows linearly — unstable.")
		fmt.Println("Theorem 2: one memory unit keeps it bounded at ~100% throughput.")
		return
	}
	run(*d, *mem)
}

// exitf reports a bad flag value on one line and exits with status 2.
func exitf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "drillstab: "+format+"\n", args...)
	os.Exit(2)
}
