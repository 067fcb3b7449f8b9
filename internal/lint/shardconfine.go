package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/types/typeutil"

	"drill/internal/lint/callgraph"
)

// ShardConfine mechanically proves the sharded engine's confinement
// story: shard workers may touch only shard-local state. The sharded
// engine is byte-identical to the sequential one precisely because every
// event executed on a shard's scheduler reads and writes nothing but
// that shard's domain — an invariant that was previously enforced by
// review plus the coarse "no goroutines outside internal/sim/shard.go"
// ban. This analyzer rebuilds it as reachability over the typed
// per-package call graph (internal/lint/callgraph):
//
// Roots — the code that runs inside a shard worker:
//
//  1. functions launched by `go` statements in the package's shard.go
//     (the worker entry points themselves);
//  2. callbacks handed to shard-class scheduling calls on sim.Sim —
//     OnPort, At, After, NewTimer, ReserveKey — because under sharding
//     those events run on a shard's private scheduler. Global/barrier-class calls (AtGlobal,
//     AfterGlobal, AfterObserver, NewObserverTicker) are excluded: they
//     run on the global sim between windows. Callbacks created inside
//     methods of a type carrying the fabric.ShardUnsafe marker are also
//     excluded — marked schemes are refused by NewSharded and only ever
//     run sequentially.
//
// Checks over the worker-reachable set:
//
//   - package-level mutable state: any read or write of a package-level
//     variable (unless the variable is provably read-only in its
//     package) is shared across shards with no synchronization but the
//     window barrier, so it is reported;
//   - domain crossing: in packages that define shard domains (a type
//     declared in shard.go), any expression outside shard.go that
//     produces a domain-typed value through anything but the blessed
//     own-domain handle (a field named "dom") is a pointer about to
//     cross shards outside the ExchangeShards path, and any selection of
//     the global scheduler handle (the Sim field of fabric.Network) from
//     worker code bypasses the barrier entirely;
//   - balancer confinement: an lb scheme whose decision path (Choose and
//     the OnSend/OnTx/OnArrive hooks, followed through the call graph)
//     reaches package-level state, the global scheduler, or writes
//     receiver-held state must carry the fabric.ShardUnsafe marker — a
//     "shard-safe CONGA" cannot be declared safe by accident.
//
// The analysis is per package (unitchecker shows one compilation unit at
// a time), which matches the invariant: each package's bodies prove
// their own confinement, and cross-package calls are proven where the
// callee lives.
var ShardConfine = &analysis.Analyzer{
	Name: "shardconfine",
	Doc: "prove shard-worker-reachable code touches only shard-local state: " +
		"no package-level variables, no domain pointers outside the exchange path, " +
		"no unmarked balancers reaching shared state",
	Run: runShardConfine,
}

// workerSchedMethods are the sim.Sim scheduling entry points whose
// callbacks execute on a shard's private scheduler under sharding.
var workerSchedMethods = map[string]bool{
	"OnPort":     true,
	"At":         true,
	"After":      true,
	"NewTimer":   true,
	"ReserveKey": true,
}

// balancerHookMethods maps each fabric hook interface consulted on the
// per-packet decision path to its method set. BuildTables is absent on
// purpose: table building happens at setup/reconvergence time on the
// barrier, not inside workers.
var balancerHookMethods = map[string][]string{
	"Balancer":       {"Choose"},
	"SendHook":       {"OnSend"},
	"TxObserver":     {"OnTx"},
	"ArriveObserver": {"OnArrive"},
}

func runShardConfine(pass *analysis.Pass) (any, error) {
	if !isSimPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	sup := newSuppressor(pass, "shardconfine")
	defer sup.stale()

	// Tests drive shards however they like; the invariant binds the
	// engine, not its proofs.
	var files []*ast.File
	for _, f := range pass.Files {
		if !isTestFile(pass, f) {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, nil
	}

	sc := &shardConfine{
		pass:  pass,
		sup:   sup,
		graph: callgraph.Build(files, pass.TypesInfo, pass.Pkg),
		files: files,
	}
	sc.findFabric()
	sc.findShardFile()
	sc.collectReadOnlyVars()

	reach := sc.graph.Reachable(sc.workerRoots())
	for n := range reach {
		sc.checkWorkerNode(n)
	}
	sc.checkBalancers()
	return nil, nil
}

type shardConfine struct {
	pass  *analysis.Pass
	sup   *suppressor
	graph *callgraph.Graph
	files []*ast.File

	// shardFile is this package's shard.go (nil if absent); domainTypes
	// are the shard-domain types it declares.
	shardFile   *ast.File
	domainTypes map[*types.TypeName]bool

	// shardUnsafe is the fabric.ShardUnsafe marker interface; hookIfaces
	// the per-packet hook interfaces — both resolved from this package or
	// its imports, nil when fabric is not in view.
	shardUnsafe *types.Interface
	hookIfaces  map[string]*types.Interface // interface name -> type
	networkType *types.TypeName             // fabric.Network, for the Sim-handle rule

	// readOnlyVars are this package's package-level variables that are
	// never assigned or address-taken outside their declaration: lookup
	// tables and sentinels that cannot carry cross-shard mutable state.
	readOnlyVars map[*types.Var]bool
}

// fabricPkgSuffix identifies the fabric package, home of the domain
// types, the hook interfaces, and the ShardUnsafe marker.
const fabricPkgSuffix = "internal/fabric"

func isFabricPkg(path string) bool {
	return path == fabricPkgSuffix || strings.HasSuffix(path, "/"+fabricPkgSuffix)
}

// findFabric resolves the ShardUnsafe marker, the hook interfaces, and
// the Network type from this package (when it is fabric) or its imports.
func (sc *shardConfine) findFabric() {
	sc.hookIfaces = make(map[string]*types.Interface)
	lookIn := func(pkg *types.Package) {
		scope := pkg.Scope()
		if tn, ok := scope.Lookup("ShardUnsafe").(*types.TypeName); ok {
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				sc.shardUnsafe = iface
			}
		}
		for name := range balancerHookMethods {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					sc.hookIfaces[name] = iface
				}
			}
		}
		if tn, ok := scope.Lookup("Network").(*types.TypeName); ok {
			sc.networkType = tn
		}
	}
	if isFabricPkg(sc.pass.Pkg.Path()) {
		lookIn(sc.pass.Pkg)
		return
	}
	for _, imp := range sc.pass.Pkg.Imports() {
		if isFabricPkg(imp.Path()) {
			lookIn(imp)
			return
		}
	}
}

// findShardFile locates this package's shard.go and the domain types it
// declares. Only internal/sim and internal/fabric host shard runners.
func (sc *shardConfine) findShardFile() {
	sc.domainTypes = make(map[*types.TypeName]bool)
	path := sc.pass.Pkg.Path()
	if !isSimSchedPkg(path) && !isFabricPkg(path) {
		return
	}
	for _, f := range sc.files {
		name := filepath.Base(sc.pass.Fset.Position(f.Pos()).Filename)
		if name != "shard.go" {
			continue
		}
		sc.shardFile = f
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if tn, ok := sc.pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					sc.domainTypes[tn] = true
				}
			}
		}
		return
	}
}

// collectReadOnlyVars marks this package's package-level variables that
// are never written or address-taken outside their own declaration.
// Reading one from a worker is safe: it is immutable for the run.
func (sc *shardConfine) collectReadOnlyVars() {
	sc.readOnlyVars = make(map[*types.Var]bool)
	scope := sc.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok {
			sc.readOnlyVars[v] = true
		}
	}
	info := sc.pass.TypesInfo
	demote := func(e ast.Expr) {
		// Strip to the base identifier: writing weights[0] or table.f
		// mutates the variable's reachable state just the same.
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.Ident:
				if v, ok := info.Uses[x].(*types.Var); ok {
					delete(sc.readOnlyVars, v)
				}
				return
			default:
				return
			}
		}
	}
	for _, f := range sc.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					demote(lhs)
				}
			case *ast.IncDecStmt:
				demote(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					demote(n.X)
				}
			}
			return true
		})
	}
}

// implementsShardUnsafe reports whether t (or *t) carries the marker.
func (sc *shardConfine) implementsShardUnsafe(t types.Type) bool {
	if sc.shardUnsafe == nil {
		return false
	}
	return types.Implements(t, sc.shardUnsafe) || types.Implements(types.NewPointer(t), sc.shardUnsafe)
}

// recvType returns the named receiver type of a method node's function,
// or nil.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t
}

// workerRoots collects the shard-worker entry points.
func (sc *shardConfine) workerRoots() []*callgraph.Node {
	var roots []*callgraph.Node
	info := sc.pass.TypesInfo

	// Root 1: go statements in shard.go — the worker loops themselves.
	if sc.shardFile != nil {
		ast.Inspect(sc.shardFile, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				roots = append(roots, sc.graph.LitNode(lit))
				return true
			}
			if fn := typeutil.StaticCallee(info, gs.Call); fn != nil {
				roots = append(roots, sc.graph.NodeOf(fn))
			} else if fn := sc.graph.FuncFor(gs.Call.Fun); fn != nil {
				roots = append(roots, sc.graph.NodeOf(fn))
			}
			return true
		})
	}

	// Root 2: callbacks passed to shard-class scheduling calls.
	for _, f := range sc.files {
		var enclFn *types.Func
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				enclFn, _ = info.Defs[fd.Name].(*types.Func)
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !sc.isWorkerSchedCall(call) {
				return true
			}
			// Closures created inside methods of ShardUnsafe-marked
			// types never run sharded: NewSharded refuses the scheme.
			if enclFn != nil {
				if rt := recvType(enclFn); rt != nil && sc.implementsShardUnsafe(rt) {
					return true
				}
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					roots = append(roots, sc.graph.LitNode(lit))
					continue
				}
				if fn := sc.graph.FuncFor(arg); fn != nil {
					roots = append(roots, sc.graph.NodeOf(fn))
				}
			}
			return true
		})
	}
	return roots
}

// isWorkerSchedCall reports whether call is a shard-class scheduling
// call on a sim.Sim receiver.
func (sc *shardConfine) isWorkerSchedCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !workerSchedMethods[sel.Sel.Name] {
		return false
	}
	s, ok := sc.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	rt := s.Recv()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Sim" && obj.Pkg() != nil && isSimSchedPkg(obj.Pkg().Path())
}

// inShardFile reports whether pos falls inside this package's shard.go,
// where domain plumbing (ExchangeShards, FoldShards, NewSharded) is
// blessed.
func (sc *shardConfine) inShardFile(pos token.Pos) bool {
	return sc.shardFile != nil && sc.shardFile.FileStart <= pos && pos < sc.shardFile.FileEnd
}

// checkWorkerNode applies the package-state and domain-crossing checks
// to one worker-reachable function.
func (sc *shardConfine) checkWorkerNode(n *callgraph.Node) {
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// Nested literals are their own nodes, visited via their
			// own reachability.
			return false
		case *ast.Ident:
			if v := sc.packageLevelVar(x); v != nil {
				sc.sup.Reportf(x.Pos(),
					"shard-worker-reachable code (%s) touches package-level variable %s: shard workers may only touch shard-local state",
					n.Name(), v.Name())
			}
		case *ast.SelectorExpr:
			sc.checkDomainSelector(n, x)
		case *ast.IndexExpr:
			sc.checkDomainIndex(n, x)
		}
		return true
	})
}

// packageLevelVar returns the package-level mutable variable used by
// id, or nil. Read-only package variables (never reassigned, never
// address-taken) are immutable for the run and allowed.
func (sc *shardConfine) packageLevelVar(id *ast.Ident) *types.Var {
	obj := sc.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = sc.pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if v.Name() == "_" {
		return nil
	}
	if v.Pkg() == sc.pass.Pkg && sc.readOnlyVars[v] {
		return nil
	}
	return v
}

// checkDomainSelector reports worker code outside shard.go that either
// produces a shard-domain value through a non-blessed accessor or grabs
// the global scheduler handle off the Network.
func (sc *shardConfine) checkDomainSelector(n *callgraph.Node, sel *ast.SelectorExpr) {
	if sc.inShardFile(sel.Pos()) {
		return
	}
	info := sc.pass.TypesInfo
	// Global scheduler handle: Network.Sim is the barrier-class sim;
	// worker events schedule on their domain's sim.
	if sc.networkType != nil && sel.Sel.Name == "Sim" {
		xt := info.TypeOf(sel.X)
		if p, ok := xt.(*types.Pointer); ok {
			xt = p.Elem()
		}
		if named, ok := xt.(*types.Named); ok && named.Obj() == sc.networkType {
			sc.sup.Reportf(sel.Pos(),
				"shard-worker-reachable code (%s) selects the global scheduler %s.Sim: worker events must schedule on their domain's sim",
				n.Name(), sc.networkType.Name())
			return
		}
	}
	if len(sc.domainTypes) == 0 || sel.Sel.Name == "dom" {
		// A field named dom is the blessed own-domain handle.
		return
	}
	if sc.isDomainType(info.TypeOf(sel)) {
		sc.sup.Reportf(sel.Pos(),
			"shard-worker-reachable code (%s) reaches a shard domain through %s outside shard.go: domain pointers may only cross shards on the ExchangeShards path",
			n.Name(), sel.Sel.Name)
	}
}

// checkDomainIndex reports worker code outside shard.go that pulls a
// domain value out of a collection (a by-node index is how a pointer
// crosses into another shard's domain).
func (sc *shardConfine) checkDomainIndex(n *callgraph.Node, idx *ast.IndexExpr) {
	if sc.inShardFile(idx.Pos()) || len(sc.domainTypes) == 0 {
		return
	}
	if sc.isDomainType(sc.pass.TypesInfo.TypeOf(idx)) {
		sc.sup.Reportf(idx.Pos(),
			"shard-worker-reachable code (%s) indexes into a shard-domain collection outside shard.go: domain pointers may only cross shards on the ExchangeShards path",
			n.Name())
	}
}

// isDomainType reports whether t is (a pointer to) a type declared in
// this package's shard.go.
func (sc *shardConfine) isDomainType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return sc.domainTypes[named.Obj()]
}

// checkBalancers applies the marker check: every package-local type
// implementing a fabric hook interface without the ShardUnsafe marker
// must have a decision path free of shared state.
func (sc *shardConfine) checkBalancers() {
	if len(sc.hookIfaces) == 0 {
		return
	}
	scope := sc.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
			continue
		}
		t := tn.Type()
		if sc.implementsShardUnsafe(t) {
			continue
		}
		var hookRoots []*callgraph.Node
		for ifaceName, iface := range sc.hookIfaces {
			if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
				continue
			}
			for _, m := range balancerHookMethods[ifaceName] {
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, sc.pass.Pkg, m)
				if fn, ok := obj.(*types.Func); ok {
					if node := sc.graph.NodeOf(fn); node != nil {
						hookRoots = append(hookRoots, node)
					}
				}
			}
		}
		if len(hookRoots) == 0 {
			continue
		}
		sc.checkUnmarkedScheme(tn, hookRoots)
	}
}

// checkUnmarkedScheme walks the decision-path-reachable set of one
// unmarked hook implementer and reports every shared-state signal.
func (sc *shardConfine) checkUnmarkedScheme(tn *types.TypeName, roots []*callgraph.Node) {
	info := sc.pass.TypesInfo
	reach := sc.graph.Reachable(roots)
	for n := range reach {
		body := n.Body()
		if body == nil {
			continue
		}
		// Receiver-derived writes only make sense inside the scheme's
		// own methods (and their literals): that is where "receiver"
		// is defined.
		var tainted map[types.Object]bool
		if fn := nodeFunc(n); fn != nil && recvNames(fn, tn) {
			tainted = receiverTaint(info, n)
		}
		ast.Inspect(body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false // literals are their own reachable nodes
			case *ast.Ident:
				if v := sc.packageLevelVar(x); v != nil {
					sc.sup.Reportf(x.Pos(),
						"%s reaches package-level variable %s on its decision path but does not carry the fabric.ShardUnsafe marker: mark it or confine the state",
						tn.Name(), v.Name())
				}
			case *ast.SelectorExpr:
				if sc.networkType != nil && x.Sel.Name == "Sim" {
					xt := info.TypeOf(x.X)
					if p, ok := xt.(*types.Pointer); ok {
						xt = p.Elem()
					}
					if named, ok := xt.(*types.Named); ok && named.Obj() == sc.networkType {
						sc.sup.Reportf(x.Pos(),
							"%s reaches the global scheduler %s.Sim on its decision path but does not carry the fabric.ShardUnsafe marker: mark it or confine the state",
							tn.Name(), sc.networkType.Name())
					}
				}
			case *ast.AssignStmt:
				if tainted == nil {
					return true
				}
				for _, lhs := range x.Lhs {
					if isThroughWrite(lhs) && exprTainted(info, tainted, lhs) {
						sc.sup.Reportf(lhs.Pos(),
							"%s writes receiver-held state on its decision path but does not carry the fabric.ShardUnsafe marker: engines sharing the scheme would race across shards",
							tn.Name())
					}
				}
			case *ast.IncDecStmt:
				if tainted != nil && isThroughWrite(x.X) && exprTainted(info, tainted, x.X) {
					sc.sup.Reportf(x.X.Pos(),
						"%s writes receiver-held state on its decision path but does not carry the fabric.ShardUnsafe marker: engines sharing the scheme would race across shards",
						tn.Name())
				}
			case *ast.CallExpr:
				if tainted == nil {
					return true
				}
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && len(x.Args) == 2 {
						if exprTainted(info, tainted, x.Args[0]) {
							sc.sup.Reportf(x.Pos(),
								"%s deletes from receiver-held state on its decision path but does not carry the fabric.ShardUnsafe marker: engines sharing the scheme would race across shards",
								tn.Name())
						}
					}
				}
			}
			return true
		})
	}
}

// nodeFunc returns the declared function behind a node: itself, or the
// lexical encloser of a literal.
func nodeFunc(n *callgraph.Node) *types.Func {
	if n.Fn != nil {
		return n.Fn
	}
	return n.Encl
}

// recvNames reports whether fn is a method whose receiver is tn's type.
func recvNames(fn *types.Func, tn *types.TypeName) bool {
	rt := recvType(fn)
	if rt == nil {
		return false
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj() == tn
}

// receiverTaint computes the objects derived from the method receiver
// inside one node's body: the receiver itself plus locals assigned from
// receiver-derived expressions, to a fixpoint. Writes *through* a
// tainted base (selector, index) mutate state shared by every engine
// holding the scheme.
func receiverTaint(info *types.Info, n *callgraph.Node) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	fn := nodeFunc(n)
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return tainted
	}
	tainted[sig.Recv()] = true

	body := n.Body()
	for {
		changed := false
		ast.Inspect(body, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false // literal bodies taint on their own visit
			}
			as, ok := x.(*ast.AssignStmt)
			if !ok {
				return true
			}
			pairwise := len(as.Lhs) == len(as.Rhs)
			anyRHS := false
			if !pairwise {
				for _, rhs := range as.Rhs {
					if exprTainted(info, tainted, rhs) {
						anyRHS = true
					}
				}
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil || tainted[obj] {
					continue
				}
				src := anyRHS
				if pairwise {
					src = exprTainted(info, tainted, as.Rhs[i])
				}
				if src {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			return tainted
		}
	}
}

// exprTainted reports whether the base identifier of a selector/index
// chain is a tainted object.
func exprTainted(info *types.Info, tainted map[types.Object]bool, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			return obj != nil && tainted[obj]
		default:
			return false
		}
	}
}

// isThroughWrite reports whether lhs writes through a chain (selector or
// index) rather than rebinding a plain identifier: `p.pins[k] = v`
// mutates shared state, `p = other` only rebinds a local.
func isThroughWrite(lhs ast.Expr) bool {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}
