// Package dead is the deadexport fixture: exports reached only from
// tests are findings; exports some non-test file reaches are not.
package dead

import "fmt"

// OnlyTested is referenced from dead_test.go alone.
func OnlyTested() int { return 1 } // want `exported func internal/dead\.OnlyTested has no non-test reference`

// UsedByCmd is called from cmd/deaduse.
func UsedByCmd() int { return 2 }

// UsedByBench is called from the nested perfbench module only.
func UsedByBench() int { return 3 }

// UsedByExample is called from examples/demo only, which is no
// production reference.
func UsedByExample() int { return 5 } // want `exported func internal/dead\.UsedByExample has no non-test reference`

// usedInternally reaches Helper from a non-test file of this package.
func usedInternally() int { return Helper() }

// Helper is referenced by this package's own production code.
func Helper() int { return 4 }

// Recursive only calls itself, which is no reference.
func Recursive(n int) int { // want `exported func internal/dead\.Recursive has`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Level is used from cmd/deaduse. Its String method satisfies
// fmt.Stringer, so it is never flagged even though nothing names it.
type Level int

// String renders the level.
func (l Level) String() string { return fmt.Sprintf("L%d", int(l)) }

// Double is a method no non-test file calls.
func (l Level) Double() Level { return 2 * l } // want `exported method internal/dead\.Level\.Double has`

// Orphan is used only by its own methods.
type Orphan struct{ n int } // want `exported type internal/dead\.Orphan has`

// Get is named by the getter interface below, so it could be reached
// through an interface call and is never flagged.
func (o *Orphan) Get() int { return o.n }

type getter interface{ Get() int }

// Tally shares a method name and signature with cmd/deaduse's sized
// interface but lacks its Cap, so no interface call reaches its Len.
type Tally struct{ n int }

// Len is named like an interface method, which spares nothing.
func (t Tally) Len() Level { return Level(t.n) } // want `exported method internal/dead\.Tally\.Len has`

// Inner does not implement sized on its own.
type Inner struct{ n int }

// Len is promoted into Outer, which implements cmd/deaduse's sized, so
// an interface call reaches it and it is never flagged.
func (i Inner) Len() Level { return Level(i.n) }

// Outer implements sized with its own Cap and Inner's Len.
type Outer struct {
	Inner
	c int
}

// Cap is reached only through the sized interface.
func (o Outer) Cap() int { return o.c }

// Threshold is an unreferenced exported const.
const Threshold = 10 // want `exported const internal/dead\.Threshold has`

// Arm is a hook other packages' tests drive.
//
//simlint:allow deadexport fixture: a hook other packages' tests drive
func Arm() {}

/* want `malformed simlint directive` */ //simlint:allow deadexport
func NoReason() {} // want `exported func internal/dead\.NoReason has`

var _ = usedInternally
