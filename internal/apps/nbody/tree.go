// Package nbody implements the paper's gravitational N-body tree code
// (§5.3): a Barnes–Hut octree with monopole (center-of-mass) expansions,
// a user-supplied opening-angle accuracy criterion, Plummer-softened
// forces, and a leapfrog integrator. The tree search is unstructured and
// makes heavy use of indirect addressing in its innermost loop — exactly
// the fine-grained global memory access pattern the paper studies.
package nbody

import (
	"cmp"
	"math"
	"slices"

	"spp1000/internal/morton"
	"spp1000/internal/rng"
)

// Bodies is a structure-of-arrays particle set.
type Bodies struct {
	X, Y, Z    []float64
	VX, VY, VZ []float64
	M          []float64
}

// N reports the particle count.
func (b *Bodies) N() int { return len(b.X) }

// NewPlummer samples n bodies from a Plummer sphere (the standard
// astrophysical test distribution; centrally condensed, so per-particle
// tree work varies spatially — the source of load imbalance).
func NewPlummer(n int, seed uint64) *Bodies {
	r := rng.New(seed)
	b := &Bodies{
		X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		VX: make([]float64, n), VY: make([]float64, n), VZ: make([]float64, n),
		M: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		// Radius from the cumulative mass profile.
		u := r.Float64()
		if u < 1e-10 {
			u = 1e-10
		}
		rad := 1 / math.Sqrt(math.Pow(u, -2.0/3.0)-1)
		if rad > 10 {
			rad = 10
		}
		// Isotropic direction.
		z := 2*r.Float64() - 1
		phi := 2 * math.Pi * r.Float64()
		s := math.Sqrt(1 - z*z)
		b.X[i] = rad * s * math.Cos(phi)
		b.Y[i] = rad * s * math.Sin(phi)
		b.Z[i] = rad * z
		b.VX[i] = r.NormFloat64() * 0.1
		b.VY[i] = r.NormFloat64() * 0.1
		b.VZ[i] = r.NormFloat64() * 0.1
		b.M[i] = 1.0 / float64(n)
	}
	return b
}

// SortMorton orders the bodies along a 3-D Morton curve, as the paper's
// codes do for cache locality (§5.2.1): contiguous index ranges become
// spatially compact blocks, which is also what gives the static
// block-partitioned threads their (im)balance.
func SortMorton(b *Bodies) {
	recs := mortonKeys(b)
	if recs == nil {
		return
	}
	// slices.SortFunc is generated from the same pdqsort template as
	// sort.Slice, so it yields the same permutation, equal keys
	// included; a stable or radix sort would reorder ties.
	slices.SortFunc(recs, func(p, q mortonRec) int { return cmp.Compare(p.key, q.key) })
	scratch := make([]float64, b.N())
	for _, a := range [...][]float64{b.X, b.Y, b.Z, b.VX, b.VY, b.VZ, b.M} {
		for i, r := range recs {
			scratch[i] = a[r.idx]
		}
		copy(a, scratch)
	}
}

// mortonRec is one body's Morton key.
type mortonRec struct {
	key uint64
	idx int
}

// mortonKeys returns every body's Morton key in body order, or nil
// when the bodies span no volume.
func mortonKeys(b *Bodies) []mortonRec {
	n := b.N()
	min, max := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		for _, v := range [3]float64{b.X[i], b.Y[i], b.Z[i]} {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	span := max - min
	if span <= 0 {
		return nil
	}
	const grid = 1 << 20 // 20-bit keys per axis
	recs := make([]mortonRec, n)
	for i := 0; i < n; i++ {
		qx := uint64((b.X[i] - min) / span * (grid - 1))
		qy := uint64((b.Y[i] - min) / span * (grid - 1))
		qz := uint64((b.Z[i] - min) / span * (grid - 1))
		recs[i] = mortonRec{key: morton.Encode3(qx, qy, qz), idx: i}
	}
	return recs
}

// node is one octree cell. Cells do not store their centres: insert is
// the only reader, and it derives each centre on the way down from the
// root's.
type node struct {
	half             float64 // half side length
	mass             float64
	comX, comY, comZ float64
	children         [8]int32 // node indices, -1 = empty
	body             int32    // particle index for singleton leaves, else -1
	count            int32    // bodies underneath
}

// Tree is a built Barnes–Hut octree.
type Tree struct {
	nodes      []node
	bodies     *Bodies
	cx, cy, cz float64 // root cell centre
}

// NodeBytes is the approximate storage of one tree node as the paper's
// Fortran code would hold it (used by the performance model). It is a
// model constant, not the size of the Go node.
const NodeBytes = 88

// nodeCapacity is the node count Build reserves for n bodies. Plummer
// spheres from 32K to 2M bodies build 1.482–1.486 nodes per body, so
// 8n/5 holds them without regrowing the slice; denser clusters fall
// back to append's growth.
func nodeCapacity(n int) int { return 8*n/5 + 1 }

// Build constructs the octree over the bodies.
func Build(b *Bodies) *Tree {
	// Bounding cube.
	min, max := math.Inf(1), math.Inf(-1)
	for i := 0; i < b.N(); i++ {
		for _, v := range [3]float64{b.X[i], b.Y[i], b.Z[i]} {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	half := (max - min) / 2
	if half <= 0 {
		half = 1
	}
	half *= 1.0001 // open the boundary
	cx := (max + min) / 2
	t := &Tree{bodies: b, nodes: make([]node, 0, nodeCapacity(b.N())), cx: cx, cy: cx, cz: cx}
	t.newNode(half)
	for i := 0; i < b.N(); i++ {
		t.insert(int32(i))
	}
	t.computeMoments(0)
	return t
}

func (t *Tree) newNode(half float64) int32 {
	t.nodes = append(t.nodes, node{half: half, body: -1,
		children: [8]int32{-1, -1, -1, -1, -1, -1, -1, -1}})
	return int32(len(t.nodes) - 1)
}

// NumNodes reports the node count.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// octant selects the child octant of a point within the cell centred
// at (cx, cy, cz).
func octant(cx, cy, cz, x, y, z float64) int {
	o := 0
	if x >= cx {
		o |= 1
	}
	if y >= cy {
		o |= 2
	}
	if z >= cz {
		o |= 4
	}
	return o
}

// childCenter is the centre of octant o of the cell centred at
// (cx, cy, cz), whose children have half side h.
func childCenter(cx, cy, cz, h float64, o int) (float64, float64, float64) {
	if o&1 != 0 {
		cx += h
	} else {
		cx -= h
	}
	if o&2 != 0 {
		cy += h
	} else {
		cy -= h
	}
	if o&4 != 0 {
		cz += h
	} else {
		cz -= h
	}
	return cx, cy, cz
}

// insert adds a body, descending from the root and carrying the current
// cell's centre along.
//
//simlint:hotpath
func (t *Tree) insert(body int32) {
	n := int32(0)
	cx, cy, cz := t.cx, t.cy, t.cz
	x, y, z := t.bodies.X, t.bodies.Y, t.bodies.Z
	for {
		nd := &t.nodes[n]
		nd.count++
		if nd.count == 1 {
			// Empty leaf: take the body.
			nd.body = body
			return
		}
		h := nd.half / 2
		if nd.body >= 0 {
			// Singleton leaf: push the resident body down, unless the
			// two coincide too closely to separate (give up splitting
			// below a minimum cell size).
			if nd.half < 1e-12 {
				return // degenerate: coincident points share the leaf's monopole
			}
			old := nd.body
			nd.body = -1
			o := octant(cx, cy, cz, x[old], y[old], z[old])
			child := t.newNode(h)
			t.nodes[n].children[o] = child // newNode may have reallocated
			t.nodes[child].body = old
			t.nodes[child].count = 1
		}
		// Internal: descend.
		o := octant(cx, cy, cz, x[body], y[body], z[body])
		if t.nodes[n].children[o] < 0 {
			child := t.newNode(h)
			t.nodes[n].children[o] = child
			t.nodes[child].body = body
			t.nodes[child].count = 1
			return
		}
		n = t.nodes[n].children[o]
		cx, cy, cz = childCenter(cx, cy, cz, h, o)
	}
}

// computeMoments fills mass and center-of-mass bottom-up.
func (t *Tree) computeMoments(n int32) (mass, mx, my, mz float64) {
	nd := &t.nodes[n]
	if nd.body >= 0 {
		b := nd.body
		m := t.bodies.M[b] * float64(nd.count) // coincident points share
		nd.mass = m
		nd.comX, nd.comY, nd.comZ = t.bodies.X[b], t.bodies.Y[b], t.bodies.Z[b]
		return m, m * nd.comX, m * nd.comY, m * nd.comZ
	}
	var tm, tx, ty, tz float64
	for _, c := range nd.children {
		if c < 0 {
			continue
		}
		m, x, y, z := t.computeMoments(c)
		tm += m
		tx += x
		ty += y
		tz += z
	}
	nd = &t.nodes[n]
	nd.mass = tm
	if tm > 0 {
		nd.comX, nd.comY, nd.comZ = tx/tm, ty/tm, tz/tm
	}
	return tm, tx, ty, tz
}

// ForceStats counts the work of one force evaluation.
type ForceStats struct {
	Visited      int64 // tree nodes examined
	Interactions int64 // monopole/body interactions evaluated
}

// Force computes the softened gravitational acceleration on body i with
// opening angle theta and softening eps, returning per-call work counts.
//
//simlint:hotpath
func (t *Tree) Force(i int, theta, eps float64) (ax, ay, az float64, st ForceStats) {
	xi, yi, zi := t.bodies.X[i], t.bodies.Y[i], t.bodies.Z[i]
	eps2 := eps * eps
	// Explicit stack: the paper's code is an iterative tree search.
	stack := make([]int32, 0, 64)
	stack = append(stack, 0)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[n]
		st.Visited++
		if nd.count == 0 || nd.mass == 0 {
			continue
		}
		dx := nd.comX - xi
		dy := nd.comY - yi
		dz := nd.comZ - zi
		r2 := dx*dx + dy*dy + dz*dz
		if nd.body >= 0 || (2*nd.half)*(2*nd.half) < theta*theta*r2 {
			// Accept: leaf or well-separated cell.
			if nd.body == int32(i) && nd.count == 1 {
				continue // self
			}
			st.Interactions++
			inv := 1 / math.Sqrt(r2+eps2)
			inv3 := inv * inv * inv * nd.mass
			ax += dx * inv3
			ay += dy * inv3
			az += dz * inv3
			continue
		}
		for _, c := range nd.children {
			if c >= 0 {
				stack = append(stack, c)
			}
		}
	}
	return ax, ay, az, st
}

// DirectForce is the O(N²) reference summation for body i.
func DirectForce(b *Bodies, i int, eps float64) (ax, ay, az float64) {
	eps2 := eps * eps
	xi, yi, zi := b.X[i], b.Y[i], b.Z[i]
	for j := 0; j < b.N(); j++ {
		if j == i {
			continue
		}
		dx := b.X[j] - xi
		dy := b.Y[j] - yi
		dz := b.Z[j] - zi
		r2 := dx*dx + dy*dy + dz*dz + eps2
		inv := 1 / math.Sqrt(r2)
		inv3 := inv * inv * inv * b.M[j]
		ax += dx * inv3
		ay += dy * inv3
		az += dz * inv3
	}
	return ax, ay, az
}

// Step advances the bodies one leapfrog step with the given parameters,
// returning aggregate force-evaluation statistics.
func Step(b *Bodies, dt, theta, eps float64) ForceStats {
	t := Build(b)
	var total ForceStats
	n := b.N()
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	for i := 0; i < n; i++ {
		var st ForceStats
		ax[i], ay[i], az[i], st = t.Force(i, theta, eps)
		total.Visited += st.Visited
		total.Interactions += st.Interactions
	}
	for i := 0; i < n; i++ {
		b.VX[i] += ax[i] * dt
		b.VY[i] += ay[i] * dt
		b.VZ[i] += az[i] * dt
		b.X[i] += b.VX[i] * dt
		b.Y[i] += b.VY[i] * dt
		b.Z[i] += b.VZ[i] * dt
	}
	return total
}
