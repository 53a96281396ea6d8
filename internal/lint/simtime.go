package lint

import (
	"go/ast"
	"go/types"
)

// simPkgPath is the import path of the simulation kernel that defines
// the Cycles unit type.
const simPkgPath = ModulePath + "/internal/sim"

// SimTime keeps virtual and wall-clock time apart. Everywhere but exempt
// packages it flags explicit conversions between sim.Cycles and
// time.Duration (the only way the two unit types can meet under Go's
// type system); in sim-core packages it additionally flags any reference
// to the wall-clock types time.Duration or time.Time — components of the
// simulated machine measure time in cycles, full stop.
var SimTime = &Analyzer{
	Name: "simtime",
	Doc:  "forbid mixing sim.Cycles with time.Duration, and wall-clock types inside sim-core packages",
	Run:  runSimTime,
}

func isCycles(t types.Type) bool   { return isNamedType(t, simPkgPath, "Cycles") }
func isDuration(t types.Type) bool { return isNamedType(t, "time", "Duration") }

func runSimTime(pass *Pass) error {
	class := pass.Pkg.Class
	if class == ClassExempt {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				tv, ok := info.Types[n.Fun]
				if !ok || !tv.IsType() || len(n.Args) != 1 {
					return true
				}
				src := info.TypeOf(n.Args[0])
				if src == nil {
					return true
				}
				switch {
				case isCycles(tv.Type) && isDuration(src):
					pass.Reportf(n.Pos(), "conversion of time.Duration to sim.Cycles mixes wall-clock and virtual time: construct cycles with sim.CyclesPerMicro from a model parameter")
				case isDuration(tv.Type) && isCycles(src):
					pass.Reportf(n.Pos(), "conversion of sim.Cycles to time.Duration mixes virtual and wall-clock time: render cycles with their own Micros/Seconds/String methods")
				}
			case *ast.Ident:
				if class != ClassSimCore {
					return true
				}
				tn, ok := info.Uses[n].(*types.TypeName)
				if ok && tn.Pkg() != nil && tn.Pkg().Path() == "time" &&
					(tn.Name() == "Duration" || tn.Name() == "Time") {
					pass.Reportf(n.Pos(), "wall-clock type time.%s in sim-core package: virtual time is sim.Cycles", tn.Name())
				}
			}
			return true
		})
	}
	return nil
}
