package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// wallClockFuncs are the package-level time functions that read or act on
// the host's clock. Methods of time.Time (Sub, After, …) are pure value
// arithmetic and stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Determinism enforces that simulation results are a pure function of
// their inputs. In sim-core packages it forbids wall-clock reads
// (time.Now and friends), any use of math/rand (the seeded internal/rng
// stream is the only sanctioned randomness), iteration over maps (Go
// randomizes the order, so ranges that feed simulator state or output
// must sort first or justify themselves), and host concurrency:
// goroutine spawns, channel makes, sends and receives, and imports of
// sync. Host concurrency belongs in internal/runner; the kernel's Procs
// are iter.Pull coroutines and need no exception, and the PDES
// coordinator runs its partitions inline, so a worker layer fed by
// channels cannot come back even with its goroutines started elsewhere.
// sync/atomic stays legal: the process-wide totals and flags it holds
// are order-independent sums read by host metrics, never simulator
// state. In host packages only the wall-clock check applies, so every
// legitimate host-side clock read carries a visible //simlint:allow
// justification.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, math/rand, map iteration, goroutine spawns, channels and sync in sim-core packages (wall-clock reads also flagged in host packages)",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	class := pass.Pkg.Class
	if class == ClassExempt {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if class == ClassSimCore {
					pass.Reportf(n.Pos(), "goroutine spawned in sim-core package: host concurrency belongs in internal/runner")
				}
			case *ast.ImportSpec:
				if path, _ := strconv.Unquote(n.Path.Value); path == "sync" && class == ClassSimCore {
					pass.Reportf(n.Pos(), "sync imported in sim-core package: host concurrency belongs in internal/runner")
				}
			case *ast.CallExpr:
				if class == ClassSimCore && isMakeChan(info, n) {
					pass.Reportf(n.Pos(), "channel made in sim-core package: host concurrency belongs in internal/runner")
				}
			case *ast.SendStmt:
				if class == ClassSimCore {
					pass.Reportf(n.Pos(), "channel send in sim-core package: host concurrency belongs in internal/runner")
				}
			case *ast.UnaryExpr:
				if class == ClassSimCore && n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive in sim-core package: host concurrency belongs in internal/runner")
				}
			case *ast.RangeStmt:
				if class == ClassSimCore {
					if t := info.TypeOf(n.X); t != nil {
						switch t.Underlying().(type) {
						case *types.Map:
							pass.Reportf(n.Pos(), "map iteration order is nondeterministic: sort the keys first, or annotate why order cannot reach simulator state or output")
						case *types.Chan:
							pass.Reportf(n.Pos(), "channel receive in sim-core package: host concurrency belongs in internal/runner")
						}
					}
				}
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch obj.Pkg().Path() {
				case "time":
					fn, ok := obj.(*types.Func)
					if ok && wallClockFuncs[fn.Name()] && fn.Type().(*types.Signature).Recv() == nil {
						pass.Reportf(n.Pos(), "wall-clock call time.%s: simulated time is sim.Cycles; host code must annotate its clock reads", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					if class == ClassSimCore {
						pass.Reportf(n.Pos(), "math/rand in %s package: draw from the seeded internal/rng stream so results survive Go releases", class)
					}
				}
			}
			return true
		})
	}
	return nil
}

// isMakeChan reports whether call is make of a channel type.
func isMakeChan(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	t := info.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	_, ok = t.Underlying().(*types.Chan)
	return ok
}
