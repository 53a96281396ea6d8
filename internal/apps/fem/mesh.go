// Package fem implements the paper's prototype finite-element gas
// dynamics application (§5.2): a first-order-in-space-and-time,
// lumped-mass-matrix, unstructured 2-D FEM scheme for the compressible
// Euler equations. The mesh is represented fully unstructured (triangle
// connectivity arrays with indirect addressing); points and elements are
// Morton-ordered to enhance cache locality of the gathers and scatters,
// exactly as the paper describes. The three classes of global
// communication the paper identifies — global maxima (the timestep),
// point-to-element gathers, and the element-to-point "scatter-add" — all
// appear explicitly in the solver.
package fem

//simlint:allow-file deadexport deferred sweep: test-only feature; deleting mesh.go and solver.go also deletes the 11 fem tests that exercise them (queued on ROADMAP)

import (
	"fmt"
	"sort"

	"spp1000/internal/morton"
)

// Mesh is an unstructured triangle mesh on a doubly periodic domain.
type Mesh struct {
	// PX, PY are point coordinates.
	PX, PY []float64
	// Tri is triangle connectivity: element e has vertices
	// Tri[3e], Tri[3e+1], Tri[3e+2].
	Tri []int32
	// Area is the (positive) area of each element.
	Area []float64
	// LumpedMass is the dual-cell area of each point (Σ Area/3).
	LumpedMass []float64
	// B, C hold the linear-basis gradient coefficients of each element
	// vertex: ∇φ_k = (B[3e+k], C[3e+k]) / (2 Area[e]).
	B, C []float64
}

// NumPoints reports the point count.
func (m *Mesh) NumPoints() int { return len(m.PX) }

// NumElements reports the triangle count.
func (m *Mesh) NumElements() int { return len(m.Tri) / 3 }

// The paper's two datasets (§5.2.2). The small mesh in the paper has
// 46 545 points / 92 160 elements; a 192×240 periodic structured
// triangulation gives the same element count with 46 080 points (the
// paper's mesh carries a few duplicated boundary points — see DESIGN.md).
// The large mesh matches exactly: 263 169 points is (512+1)², i.e. the
// non-periodic point count of a 512×512 grid; periodic wrapping gives
// 262 144 distinct points for the same 524 288 elements.
var (
	SmallGrid = [2]int{192, 240}
	LargeGrid = [2]int{512, 512}
)

// NewPeriodic builds an m×n structured triangulation of the unit torus
// (each quad split into two triangles), then Morton-orders points and
// elements. The structure is discarded: the solver sees only the
// unstructured connectivity arrays.
func NewPeriodic(m, n int) (*Mesh, error) {
	if m < 2 || n < 2 {
		return nil, fmt.Errorf("fem: mesh %dx%d too small", m, n)
	}
	np := m * n
	mesh := &Mesh{
		PX: make([]float64, np), PY: make([]float64, np),
	}
	dx := 1.0 / float64(m)
	dy := 1.0 / float64(n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			mesh.PX[j*m+i] = float64(i) * dx
			mesh.PY[j*m+i] = float64(j) * dy
		}
	}
	// Morton-order the points; keep the permutation to rewrite
	// connectivity.
	perm := make([]int32, np) // perm[old] = new
	{
		type rec struct {
			key uint64
			old int32
		}
		recs := make([]rec, np)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				old := int32(j*m + i)
				recs[old] = rec{key: morton.Encode2(uint32(i), uint32(j)), old: old}
			}
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].key < recs[b].key })
		px := make([]float64, np)
		py := make([]float64, np)
		for newIdx, r := range recs {
			perm[r.old] = int32(newIdx)
			px[newIdx] = mesh.PX[r.old]
			py[newIdx] = mesh.PY[r.old]
		}
		mesh.PX, mesh.PY = px, py
	}
	// Triangles, with periodic wrapping, in Morton order of their quad.
	type erec struct {
		key     uint64
		a, b, c int32
	}
	var elems []erec
	at := func(i, j int) int32 { return perm[(j%n)*m+(i%m)] }
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			key := morton.Encode2(uint32(i), uint32(j))
			p00 := at(i, j)
			p10 := at(i+1, j)
			p01 := at(i, j+1)
			p11 := at(i+1, j+1)
			elems = append(elems, erec{key: key*2 + 0, a: p00, b: p10, c: p11})
			elems = append(elems, erec{key: key*2 + 1, a: p00, b: p11, c: p01})
		}
	}
	sort.Slice(elems, func(a, b int) bool { return elems[a].key < elems[b].key })
	ne := len(elems)
	mesh.Tri = make([]int32, 3*ne)
	for e, r := range elems {
		mesh.Tri[3*e] = r.a
		mesh.Tri[3*e+1] = r.b
		mesh.Tri[3*e+2] = r.c
	}
	mesh.computeGeometry(dx, dy)
	return mesh, nil
}

// computeGeometry fills areas, lumped masses, and basis gradients.
// Periodic wrapping makes raw coordinate differences wrong across the
// seam; differences are renormalized into (−½, ½].
func (m *Mesh) computeGeometry(dx, dy float64) {
	ne := m.NumElements()
	m.Area = make([]float64, ne)
	m.B = make([]float64, 3*ne)
	m.C = make([]float64, 3*ne)
	m.LumpedMass = make([]float64, m.NumPoints())
	wrap := func(d float64) float64 {
		if d > 0.5 {
			return d - 1
		}
		if d < -0.5 {
			return d + 1
		}
		return d
	}
	for e := 0; e < ne; e++ {
		a, b, c := m.Tri[3*e], m.Tri[3*e+1], m.Tri[3*e+2]
		// Work in coordinates relative to vertex a.
		xb := wrap(m.PX[b] - m.PX[a])
		yb := wrap(m.PY[b] - m.PY[a])
		xc := wrap(m.PX[c] - m.PX[a])
		yc := wrap(m.PY[c] - m.PY[a])
		area2 := xb*yc - xc*yb // twice the signed area
		if area2 < 0 {
			// Reorient for positive area.
			b, c = c, b
			m.Tri[3*e+1], m.Tri[3*e+2] = b, c
			xb, yb, xc, yc = xc, yc, xb, yb
			area2 = -area2
		}
		m.Area[e] = area2 / 2
		// Basis gradient coefficients: ∇φ_a = (y_b−y_c, x_c−x_b)/2A etc.
		// with local coords (0,0), (xb,yb), (xc,yc).
		m.B[3*e+0] = yb - yc
		m.B[3*e+1] = yc - 0
		m.B[3*e+2] = 0 - yb
		m.C[3*e+0] = xc - xb
		m.C[3*e+1] = 0 - xc
		m.C[3*e+2] = xb - 0
		third := m.Area[e] / 3
		m.LumpedMass[a] += third
		m.LumpedMass[b] += third
		m.LumpedMass[c] += third
	}
}

// CheckInvariants validates mesh consistency (used by tests):
// connectivity in range, positive areas, lumped masses summing to the
// domain area, and basis gradients summing to zero per element.
func (m *Mesh) CheckInvariants() error {
	np := int32(m.NumPoints())
	var totalArea, totalMass float64
	for e := 0; e < m.NumElements(); e++ {
		for k := 0; k < 3; k++ {
			if v := m.Tri[3*e+k]; v < 0 || v >= np {
				return fmt.Errorf("element %d vertex %d out of range", e, v)
			}
		}
		if m.Area[e] <= 0 {
			return fmt.Errorf("element %d has area %v", e, m.Area[e])
		}
		totalArea += m.Area[e]
		if sb := m.B[3*e] + m.B[3*e+1] + m.B[3*e+2]; sb > 1e-12 || sb < -1e-12 {
			return fmt.Errorf("element %d basis x-gradients sum to %v", e, sb)
		}
		if sc := m.C[3*e] + m.C[3*e+1] + m.C[3*e+2]; sc > 1e-12 || sc < -1e-12 {
			return fmt.Errorf("element %d basis y-gradients sum to %v", e, sc)
		}
	}
	for _, lm := range m.LumpedMass {
		if lm <= 0 {
			return fmt.Errorf("non-positive lumped mass")
		}
		totalMass += lm
	}
	if d := totalArea - totalMass; d > 1e-9 || d < -1e-9 {
		return fmt.Errorf("lumped mass %v != area %v", totalMass, totalArea)
	}
	if d := totalArea - 1; d > 1e-9 || d < -1e-9 {
		return fmt.Errorf("unit torus area = %v", totalArea)
	}
	return nil
}
