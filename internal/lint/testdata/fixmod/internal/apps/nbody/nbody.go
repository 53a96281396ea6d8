// Package nbody is the allocfree inventory fixture: it declares both
// functions RequiredHotpaths lists for internal/apps/nbody, but insert
// has lost its //simlint:hotpath annotation, so the analyzer must
// insist the gate be restored.
package nbody

// Tree is a stand-in for the N-body octree.
type Tree struct{ mass []float64 }

// Force keeps its annotation and allocates nothing.
//
//simlint:hotpath
func (t *Tree) Force(i int) float64 {
	return t.mass[i]
}

// insert exists but has lost its hotpath annotation.
func (t *Tree) insert(body int) { // want "Tree.insert is a declared hot path"
	t.mass[body]++
}
