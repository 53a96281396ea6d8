package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds an interprocedural lock graph over the host-class
// packages — the concurrent ones — and fails on cycles. An edge A→B means "B was acquired while A
// was held", either directly in one function body or through a call
// chain (the analyzer propagates each function's may-acquire set to its
// callers with a fixpoint, so Submit holding s.mu and calling into a
// helper that takes cache.mu produces the same edge as inlining would).
// Two goroutines traversing a cycle's edges in opposite orders is the
// classic ABBA deadlock; a self-edge is a reacquisition of a lock the
// goroutine already holds, which deadlocks on its own for sync.Mutex.
//
// The model is positional, not path-sensitive: acquisitions are
// processed in source order, `defer mu.Unlock()` keeps the lock held to
// the end of the function, a direct `mu.Unlock()` releases it at that
// statement, and function literals are analyzed as separate anonymous
// functions (their bodies usually run on other goroutines, so the
// enclosing held-set does not transfer). Lock identity is the declared
// field or package-level variable, not the runtime instance: every
// `sink.mu` in a loop is the same node, which is exactly the
// granularity a lock *order* is stated at. TryLock/TryRLock are ignored
// (a failed try cannot block), and RLock is treated as an acquisition
// like Lock — reader reentrancy still deadlocks against a queued
// writer.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "build the interprocedural sync.Mutex/RWMutex acquisition graph over host packages and fail on lock-order cycles",
	RunModule: runLockOrder,
}

type lockOpKind int

const (
	opAcquire lockOpKind = iota
	opRelease
	opCall
)

// lockOp is one event in a function's positional lock trace.
type lockOp struct {
	kind   lockOpKind
	lock   types.Object // opAcquire/opRelease: the mutex field or variable
	callee string       // opCall: types.Func.FullName of an in-module callee
	pos    token.Pos
}

// loFunc is one analyzed function: its key (FullName, or a synthetic
// name for function literals) and ordered lock trace.
type loFunc struct {
	key string
	ops []lockOp
}

// lockEdge records "to acquired while from held" at the earliest
// position that produces it.
type lockEdge struct {
	from, to types.Object
	pos      token.Pos
}

func runLockOrder(mp *ModulePass) error {
	funcs := make(map[string]*loFunc)
	display := make(map[types.Object]string)
	var keys []string

	addFunc := func(lf *loFunc) {
		funcs[lf.key] = lf
		keys = append(keys, lf.key)
	}
	for _, pkg := range mp.Pkgs {
		if pkg.Class != ClassHost {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				collectLockOps(pkg, obj.FullName(), fd.Body, display, addFunc)
			}
		}
	}
	sort.Strings(keys)

	// Fixpoint: may[f] = locks f can acquire directly or through calls.
	may := make(map[string]map[types.Object]bool, len(funcs))
	for key, lf := range funcs {
		set := make(map[types.Object]bool)
		for _, op := range lf.ops {
			if op.kind == opAcquire {
				set[op.lock] = true
			}
		}
		may[key] = set
	}
	for changed := true; changed; {
		changed = false
		for _, key := range keys {
			for _, op := range funcs[key].ops {
				if op.kind != opCall {
					continue
				}
				for l := range may[op.callee] {
					if !may[key][l] {
						may[key][l] = true
						changed = true
					}
				}
			}
		}
	}

	// Simulate each trace to produce edges, keeping the earliest
	// position per (from, to) pair for deterministic reporting.
	edges := make(map[[2]types.Object]token.Pos)
	addEdge := func(from, to types.Object, pos token.Pos) {
		k := [2]types.Object{from, to}
		if old, ok := edges[k]; !ok || pos < old {
			edges[k] = pos
		}
	}
	for _, key := range keys {
		var held []types.Object
		for _, op := range funcs[key].ops {
			switch op.kind {
			case opAcquire:
				for _, h := range held {
					addEdge(h, op.lock, op.pos)
				}
				held = append(held, op.lock)
			case opRelease:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == op.lock {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case opCall:
				for l := range may[op.callee] {
					for _, h := range held {
						addEdge(h, l, op.pos)
					}
				}
			}
		}
	}

	// Strongly connected components of the lock graph: every SCC with
	// more than one lock, or with a self-edge, is a deadlockable cycle.
	// One finding per cycle, at the earliest edge inside it.
	nodes, succ := lockGraph(edges, display)
	for _, scc := range tarjanSCC(nodes, succ) {
		inSCC := make(map[types.Object]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		var best *lockEdge
		for k, pos := range edges {
			if !inSCC[k[0]] || !inSCC[k[1]] {
				continue
			}
			if len(scc) == 1 && k[0] != k[1] {
				continue
			}
			if best == nil || pos < best.pos {
				best = &lockEdge{from: k[0], to: k[1], pos: pos}
			}
		}
		if best == nil {
			continue // single node, no self-edge
		}
		if len(scc) == 1 {
			mp.Reportf(best.pos, "%s acquired while already held (self-deadlock)", display[best.from])
			continue
		}
		names := make([]string, 0, len(scc))
		for _, n := range scc {
			names = append(names, display[n])
		}
		sort.Strings(names)
		mp.Reportf(best.pos, "lock-order cycle among {%s}: acquiring %s while holding %s here reverses the order used elsewhere",
			strings.Join(names, ", "), display[best.to], display[best.from])
	}
	return nil
}

// collectLockOps walks body in source order recording lock operations and
// in-module calls into a new loFunc registered via add. Function literals
// become separate anonymous functions (key derived from the parent's)
// rather than inheriting the parent's held-set.
func collectLockOps(pkg *Package, key string, body *ast.BlockStmt, display map[types.Object]string, add func(*loFunc)) {
	lf := &loFunc{key: key}
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})
	litCount := 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			litCount++
			collectLockOps(pkg, fmt.Sprintf("%s$%d", key, litCount), x.Body, display, add)
			return false
		case *ast.CallExpr:
			fn := calleeFunc(pkg.Info, x)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "sync" {
				var kind lockOpKind
				switch fn.Name() {
				case "Lock", "RLock":
					kind = opAcquire
				case "Unlock", "RUnlock":
					if deferred[x] {
						return true // defer Unlock: held to end of function
					}
					kind = opRelease
				default:
					return true // TryLock and friends cannot block
				}
				lock, name := lockIdentity(pkg, x)
				if lock == nil {
					return true
				}
				if _, ok := display[lock]; !ok {
					display[lock] = name
				}
				lf.ops = append(lf.ops, lockOp{kind: kind, lock: lock, pos: x.Pos()})
				return true
			}
			if strings.HasPrefix(fn.Pkg().Path(), ModulePath) {
				lf.ops = append(lf.ops, lockOp{kind: opCall, callee: fn.FullName(), pos: x.Pos()})
			}
			return true
		}
		return true
	})
	add(lf)
}

// lockIdentity resolves the receiver of a sync.(RW)Mutex method call to
// the declared object that names the lock — a struct field (`s.mu` in
// any method is one node) or a package-level variable — plus a display
// name for diagnostics. Receivers it cannot name statically (map or
// slice elements, interface values, embedded-mutex method sets) resolve
// to nil and are ignored.
func lockIdentity(pkg *Package, call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	recv := ast.Unparen(sel.X)
	if u, ok := recv.(*ast.UnaryExpr); ok && u.Op == token.AND {
		recv = ast.Unparen(u.X)
	}
	switch x := recv.(type) {
	case *ast.SelectorExpr:
		if s := pkg.Info.Selections[x]; s != nil {
			obj := s.Obj()
			name := obj.Name()
			t := pkg.Info.TypeOf(x.X)
			for {
				p, ok := types.Unalias(t).(*types.Pointer)
				if !ok {
					break
				}
				t = p.Elem()
			}
			if named, ok := types.Unalias(t).(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
			return obj, name
		}
		// Qualified identifier: pkgname.Var.
		if obj := pkg.Info.Uses[x.Sel]; obj != nil && isMutexType(obj.Type()) {
			return obj, x.Sel.Name
		}
		return nil, ""
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil || !isMutexType(obj.Type()) {
			// An ident of non-mutex type means an embedded-mutex method
			// call (s.Lock()); the receiver variable is not a stable
			// lock identity, so skip it.
			return nil, ""
		}
		name := x.Name
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			name = obj.Pkg().Name() + "." + name
		}
		return obj, name
	}
	return nil, ""
}

// isMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// lockGraph flattens the edge map into a deterministic adjacency list
// ordered by display name.
func lockGraph(edges map[[2]types.Object]token.Pos, display map[types.Object]string) ([]types.Object, map[types.Object][]types.Object) {
	nodeSet := make(map[types.Object]bool)
	succ := make(map[types.Object][]types.Object)
	for k := range edges {
		nodeSet[k[0]] = true
		nodeSet[k[1]] = true
		succ[k[0]] = append(succ[k[0]], k[1])
	}
	nodes := make([]types.Object, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	byName := func(a, b types.Object) bool { return display[a] < display[b] }
	sort.Slice(nodes, func(i, j int) bool { return byName(nodes[i], nodes[j]) })
	for _, ss := range succ {
		sort.Slice(ss, func(i, j int) bool { return byName(ss[i], ss[j]) })
	}
	return nodes, succ
}

// tarjanSCC returns the strongly connected components of the graph in a
// deterministic order (nodes are visited in the given order).
func tarjanSCC(nodes []types.Object, succ map[types.Object][]types.Object) [][]types.Object {
	index := make(map[types.Object]int)
	lowlink := make(map[types.Object]int)
	onStack := make(map[types.Object]bool)
	var stack []types.Object
	var sccs [][]types.Object
	next := 0

	var strongconnect func(v types.Object)
	strongconnect = func(v types.Object) {
		index[v] = next
		lowlink[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if lowlink[w] < lowlink[v] {
					lowlink[v] = lowlink[w]
				}
			} else if onStack[w] && index[w] < lowlink[v] {
				lowlink[v] = index[w]
			}
		}
		if lowlink[v] == index[v] {
			var scc []types.Object
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
