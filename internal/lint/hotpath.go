package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// HotPath backs the trace layer's zero-overhead contract with two
// mechanical checks:
//
//  1. Every call to a (*trace.Tracer) emission method (Emit, Packet,
//     Flow, Sample) must be dominated by an `if <recv> != nil` guard on
//     the same receiver expression — the nil check IS the disabled fast
//     path, so an unguarded emission is either a panic (nil tracer) or
//     evidence the guard was refactored away.
//
//  2. Functions marked //drill:hotpath (the per-packet send/enqueue/
//     dequeue/deliver path) may not allocate via fmt calls, string
//     concatenation, or implicit interface boxing, preserving the
//     0-allocs/op benchmarks.
//
//  3. Inside //drill:hotpath functions, calls to internal/obs instrument
//     emission methods (Counter.Inc/Add, Gauge.Set/Add,
//     Histogram.Observe) must sit behind a nil guard on the receiver or
//     on a prefix of its selector chain — transport's histogram sites,
//     `if m := s.reg.met; m != nil { m.cwnd.Observe(s.cwnd) }` in onAck,
//     are the idiom, mirroring the trace rule: metrics off means no
//     pointer chase, no atomic, nothing.
//
//  4. Inside //drill:hotpath functions, function literals may not be
//     passed to internal/sim scheduling calls (After, At, AtGlobal,
//     NewTimer, ...): a capturing closure heap-allocates per call, which
//     is exactly the per-event allocation the scheduler's port events
//     (AtPort) and reusable Timers exist to avoid. Every data-plane event
//     is a port event, so no hot path is exempt.
var HotPath = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "require nil guards on trace and obs emissions and forbid fmt/string-concat/interface-boxing/" +
		"closure-scheduling allocations in //drill:hotpath functions",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runHotPath,
}

// tracerEmitMethods are the (*trace.Tracer) methods that emit events.
var tracerEmitMethods = map[string]bool{
	"Emit":   true,
	"Packet": true,
	"Flow":   true,
	"Sample": true,
}

func runHotPath(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass, "hotpath")
	defer sup.stale()

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Check 1: nil-guarded trace emissions, everywhere but the trace
	// package itself (Tracer methods call t.Emit on their own receiver).
	// Check 3: nil-guarded obs emissions inside //drill:hotpath functions,
	// everywhere but the obs package itself (instrument methods update
	// their own receivers).
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		if isTestFile(pass, stack[0].(*ast.File)) {
			return false
		}
		call := n.(*ast.CallExpr)
		if !isTracePkg(pass.Pkg.Path()) {
			if recv := tracerEmitReceiver(pass, call); recv != nil {
				if !nilGuarded(recv, stack) {
					sup.Reportf(call.Pos(),
						"unguarded trace emission: wrap in `if %s != nil { ... }` — the nil check is the zero-overhead disabled path",
						types.ExprString(recv))
				}
				return true
			}
		}
		if !isObsPkg(pass.Pkg.Path()) && inHotPathFunc(stack) {
			if recv := obsEmitReceiver(pass, call); recv != nil {
				if !nilGuardedPrefix(recv, stack) {
					sup.Reportf(call.Pos(),
						"unguarded metrics emission on the hot path: wrap in `if %s != nil { ... }` (or guard a selector prefix) — the nil check is the zero-overhead disabled path",
						types.ExprString(recv))
				}
			}
		}
		return true
	})

	// Check 2: allocation bans inside //drill:hotpath functions.
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if !isHotPathFunc(fd) || fd.Body == nil {
			return
		}
		if isTestFile(pass, fileOf(pass, ins, fd)) {
			return
		}
		checkHotFunc(pass, sup, fd)
	})
	return nil, nil
}

// fileOf finds the *ast.File containing the declaration.
func fileOf(pass *analysis.Pass, ins *inspector.Inspector, n ast.Node) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= n.Pos() && n.Pos() < f.FileEnd {
			return f
		}
	}
	_ = ins
	return pass.Files[0]
}

// isHotPathFunc reports whether the function's doc comment carries a
// //drill:hotpath marker.
func isHotPathFunc(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//drill:hotpath" || strings.HasPrefix(c.Text, "//drill:hotpath ") {
			return true
		}
	}
	return false
}

// tracerEmitReceiver returns the receiver expression of a
// (*trace.Tracer) emission call, or nil if the call is something else.
func tracerEmitReceiver(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
	fn := typeutil.StaticCallee(pass.TypesInfo, call)
	if fn == nil || !tracerEmitMethods[fn.Name()] {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	recv := sig.Recv().Type()
	ptr, ok := recv.(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Name() != "Tracer" || named.Obj().Pkg() == nil {
		return nil
	}
	if !isTracePkg(named.Obj().Pkg().Path()) {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// obsEmitMethods maps each internal/obs instrument type to its emission
// methods — the hot-path update entry points whose disabled state is a
// nil receiver somewhere up the selector chain.
var obsEmitMethods = map[string]map[string]bool{
	"Counter":   {"Inc": true, "Add": true},
	"Gauge":     {"Set": true, "Add": true},
	"Histogram": {"Observe": true},
}

// obsEmitReceiver returns the receiver expression of an internal/obs
// instrument emission call, or nil if the call is something else.
func obsEmitReceiver(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
	fn := typeutil.StaticCallee(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	ptr, ok := sig.Recv().Type().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !isObsPkg(named.Obj().Pkg().Path()) {
		return nil
	}
	methods := obsEmitMethods[named.Obj().Name()]
	if methods == nil || !methods[fn.Name()] {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// inHotPathFunc reports whether the innermost enclosing function
// declaration on the stack carries the //drill:hotpath marker.
func inHotPathFunc(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return isHotPathFunc(fd)
		}
	}
	return false
}

// nilGuarded reports whether some enclosing if-statement's then-branch
// (or else-if chain) contains the innermost node and its condition
// implies recv != nil under &&-conjunction.
func nilGuarded(recv ast.Expr, stack []ast.Node) bool {
	want := types.ExprString(recv)
	for i := len(stack) - 1; i > 0; i-- {
		ifst, ok := stack[i-1].(*ast.IfStmt)
		if !ok {
			continue
		}
		// Only a guard if we sit inside the then-branch; being inside
		// Cond, Init, or Else proves nothing.
		if stack[i] == ast.Node(ifst.Body) && condImpliesNonNil(ifst.Cond, want) {
			return true
		}
	}
	return false
}

// condImpliesNonNil reports whether cond being true guarantees that the
// expression printing as want is non-nil: a `want != nil` comparison,
// possibly buried under && conjunctions or parentheses. Disjunctions
// (||) guarantee nothing and are rejected.
func condImpliesNonNil(cond ast.Expr, want string) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return condImpliesNonNil(e.X, want)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return condImpliesNonNil(e.X, want) || condImpliesNonNil(e.Y, want)
		case token.NEQ:
			if isNilIdent(e.Y) && types.ExprString(e.X) == want {
				return true
			}
			if isNilIdent(e.X) && types.ExprString(e.Y) == want {
				return true
			}
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// nilGuardedPrefix is nilGuarded relaxed to selector prefixes: the obs
// idiom checks the metrics *handle* (`if r.met != nil`) and then touches
// instrument fields hanging off it (`r.met.fct.Observe(v)`,
// `r.met.drops[h].Inc()`), which EnableMetrics populates together — so a
// guard on any dotted/indexed prefix of the receiver counts.
func nilGuardedPrefix(recv ast.Expr, stack []ast.Node) bool {
	want := types.ExprString(recv)
	for i := len(stack) - 1; i > 0; i-- {
		ifst, ok := stack[i-1].(*ast.IfStmt)
		if !ok {
			continue
		}
		if stack[i] == ast.Node(ifst.Body) && condImpliesPrefixNonNil(ifst.Cond, want) {
			return true
		}
	}
	return false
}

// condImpliesPrefixNonNil reports whether cond being true guarantees that
// some selector prefix of the expression printing as want is non-nil.
func condImpliesPrefixNonNil(cond ast.Expr, want string) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return condImpliesPrefixNonNil(e.X, want)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			return condImpliesPrefixNonNil(e.X, want) || condImpliesPrefixNonNil(e.Y, want)
		case token.NEQ:
			if isNilIdent(e.Y) && isSelectorPrefix(types.ExprString(e.X), want) {
				return true
			}
			if isNilIdent(e.X) && isSelectorPrefix(types.ExprString(e.Y), want) {
				return true
			}
		}
	}
	return false
}

// isSelectorPrefix reports whether guard names expr itself or a prefix of
// its selector/index chain ("r.met" guards "r.met.fct" and
// "r.met.drops[h]", but not "r.metrics").
func isSelectorPrefix(guard, expr string) bool {
	if guard == expr {
		return true
	}
	return strings.HasPrefix(expr, guard+".") || strings.HasPrefix(expr, guard+"[")
}

// checkHotFunc walks a //drill:hotpath function body and reports the
// three banned allocation shapes.
func checkHotFunc(pass *analysis.Pass, sup *suppressor, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	// Result types of the enclosing function, for return-boxing checks.
	// Nested function literals push their own result tuples.
	var resultStack []*types.Tuple
	if sig, ok := info.TypeOf(fd.Name).(*types.Signature); ok {
		resultStack = append(resultStack, sig.Results())
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if sig, ok := info.TypeOf(n).(*types.Signature); ok {
				resultStack = append(resultStack, sig.Results())
				ast.Inspect(n.Body, walk)
				resultStack = resultStack[:len(resultStack)-1]
				return false
			}
		case *ast.CallExpr:
			// panic() arguments only evaluate on the crash path, which is
			// cold by definition: a panic message may format and box freely.
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return false
				}
			}
			checkHotCall(pass, sup, n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				sup.Reportf(n.OpPos, "string concatenation allocates on the packet hot path; emit scalar fields instead")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info.TypeOf(n.Lhs[0])) {
				sup.Reportf(n.TokPos, "string concatenation allocates on the packet hot path; emit scalar fields instead")
			}
			for i, rhs := range n.Rhs {
				if len(n.Lhs) != len(n.Rhs) {
					break // tuple assignment: no conversion happens per-element
				}
				checkBoxing(pass, sup, info.TypeOf(n.Lhs[i]), rhs)
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				want := info.TypeOf(n.Type)
				for _, v := range n.Values {
					checkBoxing(pass, sup, want, v)
				}
			}
		case *ast.ReturnStmt:
			if len(resultStack) == 0 {
				break
			}
			results := resultStack[len(resultStack)-1]
			if results == nil || results.Len() != len(n.Results) {
				break
			}
			for i, r := range n.Results {
				checkBoxing(pass, sup, results.At(i).Type(), r)
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkHotCall flags fmt calls and interface-boxing arguments in a hot
// function.
func checkHotCall(pass *analysis.Pass, sup *suppressor, call *ast.CallExpr) {
	info := pass.TypesInfo
	// Explicit conversion to an interface type boxes its operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			checkBoxing(pass, sup, tv.Type, call.Args[0])
		}
		return
	}
	if fn := typeutil.StaticCallee(info, call); fn != nil && fn.Pkg() != nil {
		if fn.Pkg().Path() == "fmt" {
			sup.Reportf(call.Pos(), "fmt.%s allocates on the packet hot path; format off the hot path or emit scalar fields", fn.Name())
			return
		}
		if isSimSchedPkg(fn.Pkg().Path()) {
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					sup.Reportf(lit.Pos(),
						"closure passed to sim.%s allocates per scheduled event on the hot path; schedule a port event (AtPort) or reuse a Timer",
						fn.Name())
				}
			}
		}
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // builtin or type error
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				param = sig.Params().At(sig.Params().Len() - 1).Type()
			} else {
				param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		if param != nil {
			checkBoxing(pass, sup, param, arg)
		}
	}
}

// checkBoxing reports when a concrete-typed expression is implicitly
// converted to an interface type (which heap-allocates the value).
func checkBoxing(pass *analysis.Pass, sup *suppressor, want types.Type, expr ast.Expr) {
	if want == nil || !types.IsInterface(want) {
		return
	}
	got := pass.TypesInfo.TypeOf(expr)
	if got == nil || types.IsInterface(got) {
		return
	}
	if b, ok := got.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	sup.Reportf(expr.Pos(), "value of type %s boxed into interface %s allocates on the packet hot path",
		types.TypeString(got, types.RelativeTo(pass.Pkg)), types.TypeString(want, types.RelativeTo(pass.Pkg)))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
