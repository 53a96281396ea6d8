package lint

import (
	"go/ast"
	"go/types"
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
// must sort first or justify themselves), and goroutine spawns (host
// concurrency belongs in internal/runner; the kernel's Procs are
// iter.Pull coroutines and need no exception, and the PDES coordinator
// runs its partitions inline). In host packages only the wall-clock
// check applies, so every legitimate host-side clock read
// carries a visible //simlint:allow justification.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, math/rand, map iteration, and goroutine spawns in sim-core packages (wall-clock reads also flagged in host packages)",
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
			case *ast.RangeStmt:
				if class == ClassSimCore {
					if t := info.TypeOf(n.X); t != nil {
						if _, ok := t.Underlying().(*types.Map); ok {
							pass.Reportf(n.Pos(), "map iteration order is nondeterministic: sort the keys first, or annotate why order cannot reach simulator state or output")
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
