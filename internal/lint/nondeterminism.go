package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// Nondeterminism forbids the classic sources of run-to-run drift inside
// the simulation packages: wall clocks, the process-global math/rand
// source, map iteration order, and ad-hoc concurrency (goroutines and
// channels, which make event order depend on the Go scheduler).
// Everything the simulator does must be a pure function of the
// configured seed, or the byte-identical parallel fan-out (and every
// Fig. 2/3 reproduction on top of it) silently breaks.
//
// The one sanctioned concurrency site is internal/sim's shard-runner
// file (shard.go): the window-barrier protocol there is exactly the
// machinery the conformance harness proves byte-identical, so its
// worker goroutines and command channels are exempt. The wall-clock,
// math/rand, and map-order bans still apply inside it.
var Nondeterminism = &analysis.Analyzer{
	Name: "nondeterminism",
	Doc: "forbid wall clocks, global math/rand, map-order iteration, and — outside internal/sim's shard runner — goroutines and channels in simulation packages " +
		"(internal/{sim,fabric,transport,queueing,lb,core,workload,quiver})",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runNondeterminism,
}

// wallClockFuncs are the time package functions that read or depend on
// the machine's clock. Conversions and constructors that are pure
// (time.Duration arithmetic, time.Unix on a constant) are not listed.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// seededRandCtors are the math/rand (and v2) package-level functions that
// build an explicitly seeded generator rather than using the global
// source; they are the sanctioned way to get randomness.
var seededRandCtors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runNondeterminism(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass, "nondeterminism")
	defer sup.stale()
	if !isSimPackage(pass.Pkg.Path()) {
		return nil, nil
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodeFilter := []ast.Node{
		(*ast.File)(nil),
		(*ast.CallExpr)(nil),
		(*ast.RangeStmt)(nil),
		(*ast.GoStmt)(nil),
		(*ast.SendStmt)(nil),
		(*ast.UnaryExpr)(nil),
	}
	skip := false        // current file is a test file
	shardRunner := false // current file is internal/sim's shard runner
	ins.Preorder(nodeFilter, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.File:
			skip = isTestFile(pass, n)
			shardRunner = isShardRunnerFile(pass, n)
		case *ast.CallExpr:
			if skip {
				return
			}
			fn := typeutil.StaticCallee(pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			checkNondetCall(sup, n, fn)
		case *ast.RangeStmt:
			if skip {
				return
			}
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return
			}
			switch t.Underlying().(type) {
			case *types.Map:
				sup.Reportf(n.Pos(),
					"map iteration order is nondeterministic in simulation code; iterate a sorted key slice, or add //drill:allow nondeterminism <reason> if the loop body is order-independent")
			case *types.Chan:
				if !shardRunner {
					sup.Reportf(n.Pos(), chanRecvMsg)
				}
			}
		case *ast.GoStmt:
			if skip || shardRunner {
				return
			}
			sup.Reportf(n.Pos(),
				"goroutine spawn in simulation code: event order would depend on the Go scheduler; only internal/sim's shard runner (shard.go) may spawn workers")
		case *ast.SendStmt:
			if skip || shardRunner {
				return
			}
			sup.Reportf(n.Pos(),
				"channel send in simulation code: cross-shard traffic must use the window-barrier exchange; only internal/sim's shard runner (shard.go) may use channels")
		case *ast.UnaryExpr:
			if n.Op != token.ARROW || skip || shardRunner {
				return
			}
			sup.Reportf(n.Pos(), chanRecvMsg)
		}
	})
	return nil, nil
}

const chanRecvMsg = "channel receive in simulation code: delivery order would depend on the Go scheduler; only internal/sim's shard runner (shard.go) may use channels"

// isShardRunnerFile reports whether f is internal/sim's shard-runner
// file (shard.go) — the one place goroutines and channels are legal,
// because the window-barrier protocol it hosts is exactly what the
// conformance harness proves byte-identical against the sequential
// engine. The wall-clock, math/rand, and map-order bans still apply.
func isShardRunnerFile(pass *analysis.Pass, f *ast.File) bool {
	if !isSimSchedPkg(pass.Pkg.Path()) {
		return false
	}
	return filepath.Base(pass.Fset.File(f.Pos()).Name()) == "shard.go"
}

func checkNondetCall(sup *suppressor, call *ast.CallExpr, fn *types.Func) {
	// Package-level functions only: methods on *rand.Rand or time.Time
	// values are deterministic given their receiver.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			sup.Reportf(call.Pos(),
				"wall clock in simulation code: time.%s is nondeterministic across runs; use the sim clock (Sim.Now/After/NewTimer)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededRandCtors[fn.Name()] {
			sup.Reportf(call.Pos(),
				"global math/rand source in simulation code: rand.%s breaks seeded reproducibility; thread a seeded *rand.Rand (Sim.Rand/Stream) instead", fn.Name())
		}
	}
}
