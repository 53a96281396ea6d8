// Package nbody implements the paper's gravitational N-body tree code
// (§5.3): a Barnes–Hut octree with monopole (center-of-mass) expansions,
// a user-supplied opening-angle accuracy criterion, and Plummer-softened
// forces. The tree search is unstructured and makes heavy use of
// indirect addressing in its innermost loop — exactly the fine-grained
// global memory access pattern the paper studies.
package nbody

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"spp1000/internal/morton"
	"spp1000/internal/rng"
	"spp1000/internal/runner"
)

// Bodies is a structure-of-arrays particle set.
type Bodies struct {
	X, Y, Z []float64
	M       []float64
}

// N reports the particle count.
func (b *Bodies) N() int { return len(b.X) }

// chunkLen is the body count of one pool task in the linear passes
// over the bodies.
const chunkLen = 1 << 16

// numChunks is the number of chunkLen pieces covering n bodies.
func numChunks(n int) int { return (n + chunkLen - 1) / chunkLen }

// eachChunk runs fn(c, lo, hi) for every chunkLen piece [lo, hi) of
// [0, n) on the runner pool. Each piece writes only its own slots, so
// no result depends on the pool width.
func eachChunk(n int, fn func(c, lo, hi int)) {
	// fn never fails, so neither does Each.
	_ = runner.Each(numChunks(n), func(c int) error {
		lo := c * chunkLen
		fn(c, lo, min(lo+chunkLen, n))
		return nil
	})
}

// plummerPositions samples the positions and masses of n bodies from a
// Plummer sphere (the standard astrophysical test distribution;
// centrally condensed, so per-particle tree work varies spatially — the
// source of load imbalance). Each body's stream also holds three normal
// velocity draws, which the force workload never reads: the generator
// skips them without transforming (rng.SkipNormals), so the positions
// stay those of the full phase-space sample.
func plummerPositions(n int, seed uint64) *Bodies {
	r := rng.New(seed)
	b := &Bodies{
		X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		M: make([]float64, n),
	}
	// The draws are one serial stream: pool task 0 makes them chunk by
	// chunk, in body order. X, Y and Z hold each body's radius, polar
	// and azimuth draws until the transform turns them into its
	// position. Every other task transforms one drawn chunk, so the
	// transforms run while the draws go on. Task 0 is dispatched first
	// and drawn holds every chunk, so task 0 never waits and the
	// others cannot deadlock.
	chunks := numChunks(n)
	//simlint:allow determinism pool channel: hands drawn chunks, in order, to runner.Each tasks; host-side build, no simulator state
	drawn := make(chan int, chunks)
	// Neither the draws nor the transform fail, so neither does Each.
	_ = runner.Each(1+chunks, func(task int) error {
		if task == 0 {
			for c := range chunks {
				for i := c * chunkLen; i < min((c+1)*chunkLen, n); i++ {
					b.X[i] = r.Float64()
					b.Y[i] = 2*r.Float64() - 1
					b.Z[i] = 2 * math.Pi * r.Float64()
					r.SkipNormals(3)
				}
				drawn <- c //simlint:allow determinism draws are made in order by task 0 alone
			}
			return nil
		}
		c := <-drawn //simlint:allow determinism which task transforms a chunk cannot change its values
		for i := c * chunkLen; i < min((c+1)*chunkLen, n); i++ {
			// Radius from the cumulative mass profile.
			u := b.X[i]
			if u < 1e-10 {
				u = 1e-10
			}
			rad := 1 / math.Sqrt(math.Pow(u, -2.0/3.0)-1)
			if rad > 10 {
				rad = 10
			}
			// Isotropic direction.
			z, phi := b.Y[i], b.Z[i]
			s := math.Sqrt(1 - z*z)
			b.X[i] = rad * s * math.Cos(phi)
			b.Y[i] = rad * s * math.Sin(phi)
			b.Z[i] = rad * z
			b.M[i] = 1.0 / float64(n)
		}
		return nil
	})
	return b
}

// SortMorton orders the bodies along a 3-D Morton curve, as the paper's
// codes do for cache locality (§5.2.1): contiguous index ranges become
// spatially compact blocks, which is also what gives the static
// block-partitioned threads their (im)balance.
//
// The N-body outputs depend on the order of bodies with equal keys,
// and that order is pdqsort's (sort.Slice, slices.SortFunc). When every
// key is distinct the sorted order is unique, so a radix sort finds the
// same one; when two keys are equal, SortMorton re-sorts the keys with
// slices.SortFunc to get pdqsort's tie order.
func SortMorton(b *Bodies) {
	recs := mortonKeys(b)
	if recs == nil {
		return
	}
	recs = radixSort(recs, make([]mortonRec, len(recs)))
	for i := 1; i < len(recs); i++ {
		if recs[i].key == recs[i-1].key {
			recs = mortonKeys(b)
			slices.SortFunc(recs, func(p, q mortonRec) int { return cmp.Compare(p.key, q.key) })
			break
		}
	}
	// One array per pool task. A task takes a scratch array from free
	// and hands it back when done, so there is at most one per worker.
	//simlint:allow determinism pool channel: recycles scratch arrays among runner.Each tasks; which array a task gets cannot change what it writes
	free := make(chan []float64, runner.Workers())
	for range cap(free) {
		free <- nil //simlint:allow determinism seeds the scratch pool
	}
	arrays := [][]float64{b.X, b.Y, b.Z, b.M}
	// The gather never fails, so neither does Each.
	_ = runner.Each(len(arrays), func(k int) error {
		//simlint:allow determinism scratch is overwritten before it is read
		a, scratch := arrays[k], <-free
		if scratch == nil {
			scratch = make([]float64, len(a))
		}
		for i, r := range recs {
			scratch[i] = a[r.idx]
		}
		copy(a, scratch)
		free <- scratch //simlint:allow determinism returns the scratch array to the pool
		return nil
	})
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
	lo, hi := cubeBounds(b)
	span := hi - lo
	if span <= 0 {
		return nil
	}
	const grid = 1 << 20 // 20-bit keys per axis
	recs := make([]mortonRec, n)
	eachChunk(n, func(_, l, h int) {
		for i := l; i < h; i++ {
			qx := uint64((b.X[i] - lo) / span * (grid - 1))
			qy := uint64((b.Y[i] - lo) / span * (grid - 1))
			qz := uint64((b.Z[i] - lo) / span * (grid - 1))
			recs[i] = mortonRec{key: morton.Encode3(qx, qy, qz), idx: i}
		}
	})
	return recs
}

// cubeBounds returns the least and the greatest coordinate over all
// three axes. The chunks' extremes are reduced in chunk order with the
// same strict comparisons, so the result is a serial scan's.
func cubeBounds(b *Bodies) (lo, hi float64) {
	los := make([]float64, numChunks(b.N()))
	his := make([]float64, len(los))
	eachChunk(b.N(), func(c, l, h int) {
		mn, mx := math.Inf(1), math.Inf(-1)
		for i := l; i < h; i++ {
			for _, v := range [3]float64{b.X[i], b.Y[i], b.Z[i]} {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
		}
		los[c], his[c] = mn, mx
	})
	lo, hi = math.Inf(1), math.Inf(-1)
	for c := range los {
		if los[c] < lo {
			lo = los[c]
		}
		if his[c] > hi {
			hi = his[c]
		}
	}
	return lo, hi
}

// Morton keys interleave three 20-bit coordinates; radixSort takes
// them 12 bits at a time.
const (
	keyBits   = 60
	digitBits = 12
	digits    = 1 << digitBits
)

// radixSort sorts recs by key with a stable LSD radix sort, using buf
// (of the same length) as the other side of each pass, and returns
// whichever of the two holds the result. Each pass counts digits and
// then scatters on the pool, one chunk per task; a chunk's slots for
// a digit follow those of the chunks before it, so the result does not
// depend on the pool width.
func radixSort(recs, buf []mortonRec) []mortonRec {
	counts := make([][digits]int, numChunks(len(recs)))
	for shift := 0; shift < keyBits; shift += digitBits {
		eachChunk(len(recs), func(c, lo, hi int) {
			cnt := &counts[c]
			*cnt = [digits]int{}
			for _, r := range recs[lo:hi] {
				cnt[r.key>>shift&(digits-1)]++
			}
		})
		pos := 0
		for d := range digits {
			for c := range counts {
				pos, counts[c][d] = pos+counts[c][d], pos
			}
		}
		eachChunk(len(recs), func(c, lo, hi int) {
			next := &counts[c]
			for _, r := range recs[lo:hi] {
				d := r.key >> shift & (digits - 1)
				buf[next[d]] = r
				next[d]++
			}
		})
		recs, buf = buf, recs
	}
	return recs
}

// node is one octree cell stored in the slab: an internal cell, a leaf
// of coincident bodies, or a root holding at most one body. Cells do
// not store their centres: insert is the only reader, and it derives
// each centre on the way down from the root's.
type node struct {
	half             float64 // half side length
	mass             float64
	comX, comY, comZ float64
	children         [8]int32 // child slots: node index, -1 = empty, or leafRef
	body             int32    // particle index for a leaf node, else -1
	count            int32    // bodies underneath
}

// leafRef is the child-slot code of an inline leaf: a cell holding the
// one body b, kept in its parent's slot instead of as a node. Its mass
// and centre of mass are the body's own, read from the body arrays.
func leafRef(b int32) int32 { return -2 - b }

// leafBody is the body of the inline leaf with child-slot code c < -1.
func leafBody(c int32) int32 { return -2 - c }

// cell is an empty cell of half side half.
func cell(half float64) node {
	return node{half: half, body: -1, children: [8]int32{-1, -1, -1, -1, -1, -1, -1, -1}}
}

// Tree is a built Barnes–Hut octree, rooted at node 0. While Build
// runs, a Tree is also the view one subtree is inserted through.
type Tree struct {
	nodes      []node
	bodies     *Bodies
	cx, cy, cz float64 // centre of the cell at root
	root       int32   // the cell insert descends from
	path       []level // the last insert's cells, from root down
	bounded    bool    // newNode fails rather than grow nodes past its capacity
	used       int     // nodes in use; Build leaves unused slots in nodes
	leaves     int     // inline leaves, held in child slots
}

// NodeBytes is the approximate storage of one tree node as the paper's
// Fortran code would hold it (used by the performance model). It is a
// model constant, not the size of the Go node.
const NodeBytes = 88

// nodeCapacity is the node count Build reserves for a subtree of n
// bodies. Singleton leaves live in their parents' child slots, so the
// nodes are the internal cells and the rare coincident leaves: Plummer
// spheres from 32K to 2M bodies build 0.482–0.489 internal cells per
// body, so 5n/8 holds every root octant's subtree; denser clusters
// fall back to one region that grows.
func nodeCapacity(n int) int { return 5*n/8 + 1 }

// errRegionFull reports that an octant's subtree outgrew its region.
var errRegionFull = errors.New("nbody: octant region full")

// Build constructs the octree over the bodies. The eight root octants
// are built at once on the runner pool (buildOctants). If one of them
// outgrows its share of the nodes, the whole tree is built again as one
// region that may grow (buildWhole).
func Build(b *Bodies) *Tree {
	t, half := newTree(b)
	if !t.buildOctants(half) {
		t.buildWhole(half)
	}
	return t
}

// newTree returns a tree over b with no cells yet, centred on the
// bodies' bounding cube, and the half side of that cube's root cell.
func newTree(b *Bodies) (*Tree, float64) {
	lo, hi := cubeBounds(b)
	half := (hi - lo) / 2
	if half <= 0 {
		half = 1
	}
	half *= 1.0001 // open the boundary
	c := (hi + lo) / 2
	return &Tree{bodies: b, cx: c, cy: c, cz: c}, half
}

// buildWhole inserts every body in order from a root cell of half side
// half, in one region that grows as it needs to.
func (t *Tree) buildWhole(half float64) {
	t.nodes = make([]node, 0, nodeCapacity(t.bodies.N()))
	t.newRoot(half)
	for i := 0; i < t.bodies.N(); i++ {
		t.insert(int32(i))
	}
	t.computeMoments(0)
	t.used = len(t.nodes)
}

// buildOctants builds the tree buildWhole would, with the same counts,
// moments and cell count, as eight root-octant subtrees at once.
// A counting pass records each body's root octant. Octant o's subtree
// gets a region of nodeCapacity(its count) slots in one slab and
// inserts through slab[:lo:hi], so its child indices are global as
// built; its task picks the octant's bodies, in body order, out of the
// recorded octants. An octant of one body is an inline leaf in the
// root, as buildWhole makes it. Force and computeMoments visit children
// by octant, never by index, so the differing numbering changes no
// result. It returns false, having set nothing, if a region fills up or
// if the root would stay a leaf.
func (t *Tree) buildOctants(half float64) bool {
	b := t.bodies
	n := b.N()
	if n < 2 || half < minHalf {
		return false
	}
	c := t.cx
	oct := make([]uint8, n)
	counts := make([][8]int, numChunks(n))
	eachChunk(n, func(k, lo, hi int) {
		for i := lo; i < hi; i++ {
			o := octant(c, c, c, b.X[i], b.Y[i], b.Z[i])
			oct[i] = uint8(o)
			counts[k][o]++
		}
	})

	// Node 0 is the root; octant o's region is nodes [lo[o], hi[o]).
	var cnt, lo, hi [8]int
	size := 1
	for o := range 8 {
		for _, k := range counts {
			cnt[o] += k[o]
		}
		lo[o] = size
		if cnt[o] > 1 {
			size += nodeCapacity(cnt[o])
		}
		hi[o] = size
	}
	slab := make([]node, size)
	slab[0] = cell(half)
	var moments [8][4]float64
	var child [8]int32
	var used, leaves [8]int
	err := runner.Each(8, func(o int) error {
		child[o] = -1
		switch cnt[o] {
		case 0:
			return nil
		case 1:
			i := int32(slices.Index(oct, uint8(o)))
			child[o], leaves[o] = leafRef(i), 1
			m, mx, my, mz := t.leafMoments(i)
			moments[o] = [4]float64{m, mx, my, mz}
			return nil
		}
		cx, cy, cz := childCenter(c, c, c, half/2, o)
		sub := &Tree{nodes: slab[:lo[o]:hi[o]], bodies: b, cx: cx, cy: cy, cz: cz, bounded: true}
		sub.newRoot(half / 2)
		for i, ob := range oct {
			if int(ob) == o && !sub.insert(int32(i)) {
				return errRegionFull
			}
		}
		m, mx, my, mz := sub.computeMoments(sub.root)
		moments[o] = [4]float64{m, mx, my, mz}
		child[o] = sub.root
		used[o], leaves[o] = len(sub.nodes)-lo[o], sub.leaves
		for i := len(sub.nodes); i < hi[o]; i++ {
			slab[i] = cell(0)
		}
		return nil
	})
	if err != nil {
		return false
	}
	// The root's moments, summed in octant order as computeMoments does.
	root := &slab[0]
	root.count = int32(n)
	root.children = child
	var tm, tx, ty, tz float64
	t.used = 1
	for o := range 8 {
		if cnt[o] == 0 {
			continue
		}
		tm += moments[o][0]
		tx += moments[o][1]
		ty += moments[o][2]
		tz += moments[o][3]
		t.used += used[o]
		t.leaves += leaves[o]
	}
	root.mass = tm
	if tm > 0 {
		root.comX, root.comY, root.comZ = tx/tm, ty/tm, tz/tm
	}
	t.nodes = slab
	return true
}

// newNode appends an empty cell and returns its index, or -1 if the
// tree is bounded and full: appending would then reallocate the slab
// under the other octants' regions.
func (t *Tree) newNode(half float64) int32 {
	if t.bounded && len(t.nodes) == cap(t.nodes) {
		return -1
	}
	t.nodes = append(t.nodes, cell(half))
	return int32(len(t.nodes) - 1)
}

// NumNodes reports the cell count: the nodes in use and the inline
// leaves.
func (t *Tree) NumNodes() int { return t.used + t.leaves }

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

// minHalf is the least half side of a cell insert splits: bodies
// closer than that share one leaf node.
const minHalf = 1e-12

// level is one cell on the path of the last insert: its node, its
// centre, and the box [lo, hi) of the points that its ancestors'
// octant tests send to it. Each bound is an ancestor's centre, or
// infinite, and the box test makes the comparisons octant makes, >=
// below and < above.
type level struct {
	node       int32
	cx, cy, cz float64
	lo, hi     [3]float64
}

// newRoot appends the empty cell of half side half that insert starts
// from, and sizes the path for the deepest descent below it.
func (t *Tree) newRoot(half float64) {
	t.root = t.newNode(half)
	// A cell of half side h >= minHalf splits, so a descent visits at
	// most e+1 cells, where half/minHalf = f·2^e with f in [0.5, 1);
	// the spare level covers rounding in the quotient.
	_, e := math.Frexp(half / minHalf)
	t.path = make([]level, 0, max(e, 0)+2)
}

// insert adds a body. The bodies usually arrive in Morton order, so a
// body shares most of its path with the one before it: insert climbs
// the last insert's path to the deepest cell whose box holds the body,
// then descends from there as a descent from the root would, carrying
// the current cell's centre along. It counts bodies only in leaf
// nodes; computeMoments sums them up the tree. It reports false,
// leaving the tree part-built, if a bounded tree has no room for a new
// cell.
//
//simlint:hotpath
func (t *Tree) insert(body int32) bool {
	x, y, z := t.bodies.X, t.bodies.Y, t.bodies.Z
	bx, by, bz := x[body], y[body], z[body]
	if len(t.path) == 0 {
		// Empty root: take the body.
		nd := &t.nodes[t.root]
		nd.body, nd.count = body, 1
		inf := math.Inf(1)
		t.path = append(t.path, level{node: t.root, cx: t.cx, cy: t.cy, cz: t.cz,
			lo: [3]float64{-inf, -inf, -inf}, hi: [3]float64{inf, inf, inf}})
		return true
	}
	d := len(t.path) - 1
	for ; d > 0; d-- {
		l := &t.path[d]
		if bx >= l.lo[0] && bx < l.hi[0] && by >= l.lo[1] && by < l.hi[1] && bz >= l.lo[2] && bz < l.hi[2] {
			break
		}
	}
	t.path = t.path[:d+1]
	l := &t.path[d]
	n, cx, cy, cz, lo, hi := l.node, l.cx, l.cy, l.cz, l.lo, l.hi
	for {
		nd := &t.nodes[n]
		h := nd.half / 2
		if nd.body >= 0 {
			// Leaf node: push the resident body down into an inline
			// leaf, unless the two coincide too closely to separate
			// (give up splitting below a minimum cell size).
			if nd.half < minHalf {
				nd.count++ // degenerate: coincident points share the leaf's monopole
				return true
			}
			old := nd.body
			nd.body = -1
			nd.children[octant(cx, cy, cz, x[old], y[old], z[old])] = leafRef(old)
			t.leaves++
		}
		// Internal: descend.
		o := octant(cx, cy, cz, bx, by, bz)
		c := nd.children[o]
		if c == -1 {
			nd.children[o] = leafRef(body)
			t.leaves++
			return true
		}
		if c < -1 {
			// An inline leaf gets a second body: it becomes a leaf node,
			// which the next pass splits.
			child := t.newNode(h)
			if child < 0 {
				return false
			}
			t.nodes[n].children[o] = child // newNode may have reallocated
			t.nodes[child].body = leafBody(c)
			t.nodes[child].count = 1
			t.leaves--
			c = child
		}
		// The child's box narrows, on each axis, to the side octant
		// chose. max and min keep it the conjunction of every
		// ancestor's test even if rounding put a centre outside its
		// parent's box. The level is written in place: a level literal
		// would be built and then copied.
		if o&1 != 0 {
			lo[0] = max(lo[0], cx)
		} else {
			hi[0] = min(hi[0], cx)
		}
		if o&2 != 0 {
			lo[1] = max(lo[1], cy)
		} else {
			hi[1] = min(hi[1], cy)
		}
		if o&4 != 0 {
			lo[2] = max(lo[2], cz)
		} else {
			hi[2] = min(hi[2], cz)
		}
		n = c
		cx, cy, cz = childCenter(cx, cy, cz, h, o)
		t.path = append(t.path, level{})
		l = &t.path[len(t.path)-1]
		l.node, l.cx, l.cy, l.cz, l.lo, l.hi = n, cx, cy, cz, lo, hi
	}
}

// computeMoments fills mass and center-of-mass bottom-up, and sets
// each internal cell's count to the sum of its children's: insert
// counts bodies only in leaf nodes, and an inline leaf holds one.
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
	var count int32
	for _, c := range nd.children {
		var m, x, y, z float64
		switch {
		case c >= 0:
			m, x, y, z = t.computeMoments(c)
			count += t.nodes[c].count
		case c < -1:
			m, x, y, z = t.leafMoments(leafBody(c))
			count++
		default:
			continue
		}
		tm += m
		tx += x
		ty += y
		tz += z
	}
	nd = &t.nodes[n]
	nd.count = count
	nd.mass = tm
	if tm > 0 {
		nd.comX, nd.comY, nd.comZ = tx/tm, ty/tm, tz/tm
	}
	return tm, tx, ty, tz
}

// leafMoments is the mass and mass-weighted position of the inline
// leaf holding body b: what computeMoments returns for a leaf node of
// one body.
func (t *Tree) leafMoments(b int32) (mass, mx, my, mz float64) {
	m := t.bodies.M[b]
	return m, m * t.bodies.X[b], m * t.bodies.Y[b], m * t.bodies.Z[b]
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
	bd := t.bodies
	xi, yi, zi := bd.X[i], bd.Y[i], bd.Z[i]
	eps2 := eps * eps
	// Explicit stack of child slots: the paper's code is an iterative
	// tree search.
	stack := make([]int32, 0, 64)
	stack = append(stack, 0)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.Visited++
		// An inline leaf is a one-body cell: always accepted, and
		// skipped when it holds body i itself.
		var mass, comX, comY, comZ float64
		var internal, self bool
		var nd *node
		if c < -1 {
			b := leafBody(c)
			mass, comX, comY, comZ = bd.M[b], bd.X[b], bd.Y[b], bd.Z[b]
			self = b == int32(i)
		} else {
			nd = &t.nodes[c]
			if nd.count == 0 {
				continue
			}
			mass, comX, comY, comZ = nd.mass, nd.comX, nd.comY, nd.comZ
			internal = nd.body < 0
			self = nd.body == int32(i) && nd.count == 1
		}
		if mass == 0 {
			continue
		}
		dx := comX - xi
		dy := comY - yi
		dz := comZ - zi
		r2 := dx*dx + dy*dy + dz*dz
		if !internal || (2*nd.half)*(2*nd.half) < theta*theta*r2 {
			// Accept: leaf or well-separated cell.
			if self {
				continue
			}
			st.Interactions++
			inv := 1 / math.Sqrt(r2+eps2)
			inv3 := inv * inv * inv * mass
			ax += dx * inv3
			ay += dy * inv3
			az += dz * inv3
			continue
		}
		for _, c := range nd.children {
			if c != -1 {
				stack = append(stack, c)
			}
		}
	}
	return ax, ay, az, st
}
