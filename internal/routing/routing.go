// Package routing implements the paper's routing disciplines and destination
// distributions. A Router turns a (source, destination) pair into the
// sequence of directed-edge ids the packet will traverse; a DestSampler
// draws a packet's destination.
//
// The central policy is greedy routing on the array (§1.1): a packet first
// moves along its source row to the correct column, then along that column
// to the correct row. Also provided: the randomized row/column-first variant
// (§6), dimension-order greedy for k-dimensional arrays (§5.2), greedy
// shortest-way routing on the torus (§6), canonical-order bit fixing on the
// hypercube (§4.5), and butterfly routing (§4.5).
package routing

import (
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Router generates routes on some fixed network. Implementations must be
// safe for concurrent use by multiple goroutines as long as each goroutine
// passes its own RNG.
type Router interface {
	// AppendRoute appends the directed-edge ids of the path from src to dst
	// onto buf and returns the extended slice. An empty route means
	// src == dst. Deterministic routers ignore rng.
	AppendRoute(buf []int, src, dst int, rng *xrand.RNG) []int
	// MaxRouteLen returns an upper bound on the number of edges in any
	// route, used to preallocate buffers and as the paper's d (Theorem 10).
	MaxRouteLen() int
}

// DestSampler draws packet destinations. Implementations must be safe for
// concurrent use provided each goroutine passes its own RNG.
type DestSampler interface {
	// Sample returns the destination node for a packet generated at src.
	Sample(src int, rng *xrand.RNG) int
}

// UniformDest samples destinations uniformly over [0, NumNodes); this is the
// paper's standard model, where a destination may equal the source.
type UniformDest struct {
	// NumNodes is the size of the node id space.
	NumNodes int
}

// Sample implements DestSampler.
func (u UniformDest) Sample(_ int, rng *xrand.RNG) int { return rng.Intn(u.NumNodes) }

// FixedDest always returns the same destination; used in tests and for
// worst-case single-flow experiments.
type FixedDest struct {
	// Node is the destination returned for every packet.
	Node int
}

// Sample implements DestSampler.
func (f FixedDest) Sample(int, *xrand.RNG) int { return f.Node }

// GreedyXY routes on an Array2D: row edges to the correct column, then
// column edges to the correct row (the paper's greedy algorithm).
type GreedyXY struct {
	A *topology.Array2D
}

// AppendRoute implements Router.
func (g GreedyXY) AppendRoute(buf []int, src, dst int, _ *xrand.RNG) []int {
	return appendRowFirst(buf, g.A, src, dst)
}

// MaxRouteLen implements Router.
func (g GreedyXY) MaxRouteLen() int { return 2 * (g.A.N() - 1) }

// GreedyYX routes column-first: column edges to the correct row, then row
// edges. It is the mirror policy used by the randomized variant.
type GreedyYX struct {
	A *topology.Array2D
}

// AppendRoute implements Router.
func (g GreedyYX) AppendRoute(buf []int, src, dst int, _ *xrand.RNG) []int {
	return appendColFirst(buf, g.A, src, dst)
}

// MaxRouteLen implements Router.
func (g GreedyYX) MaxRouteLen() int { return 2 * (g.A.N() - 1) }

// RandGreedy is §6's randomized greedy: each packet flips a fair coin to
// route row-first or column-first. It is not Markovian in the paper's sense,
// so the upper bound of Theorem 5 does not apply; Theorem 10's lower bound
// does. Simulations (paper and ours) show it slightly worse than GreedyXY.
type RandGreedy struct {
	A *topology.Array2D
}

// AppendRoute implements Router.
func (g RandGreedy) AppendRoute(buf []int, src, dst int, rng *xrand.RNG) []int {
	if rng.Bernoulli(0.5) {
		return appendRowFirst(buf, g.A, src, dst)
	}
	return appendColFirst(buf, g.A, src, dst)
}

// MaxRouteLen implements Router.
func (g RandGreedy) MaxRouteLen() int { return 2 * (g.A.N() - 1) }

func appendRowFirst(buf []int, a *topology.Array2D, src, dst int) []int {
	r1, c1 := a.Coords(src)
	r2, c2 := a.Coords(dst)
	buf = appendRowWalk(buf, a, r1, c1, c2)
	return appendColWalk(buf, a, c2, r1, r2)
}

func appendColFirst(buf []int, a *topology.Array2D, src, dst int) []int {
	r1, c1 := a.Coords(src)
	r2, c2 := a.Coords(dst)
	buf = appendColWalk(buf, a, c1, r1, r2)
	return appendRowWalk(buf, a, r2, c1, c2)
}

// appendRowWalk appends the horizontal edges moving along row r from column
// c1 to column c2. Along a row the edge ids of one direction are
// consecutive (see the Array2D id layout), so one EdgeIn call anchors the
// whole walk.
func appendRowWalk(buf []int, a *topology.Array2D, r, c1, c2 int) []int {
	switch {
	case c1 < c2:
		e, _ := a.EdgeIn(r, c1, topology.Right)
		for k := range c2 - c1 {
			buf = append(buf, e+k)
		}
	case c1 > c2:
		e, _ := a.EdgeIn(r, c1, topology.Left)
		for k := range c1 - c2 {
			buf = append(buf, e-k)
		}
	}
	return buf
}

// appendColWalk appends the vertical edges moving along column c from row r1
// to row r2, anchored the same way as appendRowWalk.
func appendColWalk(buf []int, a *topology.Array2D, c, r1, r2 int) []int {
	switch {
	case r1 < r2:
		e, _ := a.EdgeIn(r1, c, topology.Down)
		for k := range r2 - r1 {
			buf = append(buf, e+k)
		}
	case r1 > r2:
		e, _ := a.EdgeIn(r1, c, topology.Up)
		for k := range r1 - r2 {
			buf = append(buf, e-k)
		}
	}
	return buf
}

// LinearRoute routes on a Linear array: straight toward the destination.
// With entry restricted to node 0 and a fixed destination at node n-1 this
// is the tandem line of §4.4, where Theorem 10's copy-network bound is
// essentially tight.
type LinearRoute struct {
	L *topology.Linear
}

// AppendRoute implements Router.
func (g LinearRoute) AppendRoute(buf []int, src, dst int, _ *xrand.RNG) []int {
	for i := src; i < dst; i++ {
		buf = append(buf, g.L.EdgeRight(i))
	}
	for i := src; i > dst; i-- {
		buf = append(buf, g.L.EdgeLeft(i))
	}
	return buf
}

// MaxRouteLen implements Router.
func (g LinearRoute) MaxRouteLen() int { return g.L.N() - 1 }

// GreedyKD is dimension-order greedy routing on a k-dimensional array:
// correct dimension 0 first, then dimension 1, and so on (§5.2).
type GreedyKD struct {
	A *topology.ArrayKD
}

// AppendRoute implements Router.
func (g GreedyKD) AppendRoute(buf []int, src, dst int, _ *xrand.RNG) []int {
	a := g.A
	cur := src
	for m := 0; m < a.K(); m++ {
		stride := 1
		for j := m + 1; j < a.K(); j++ {
			stride *= a.Size(j)
		}
		cs := cur / stride % a.Size(m)
		cd := dst / stride % a.Size(m)
		for cs < cd {
			e, _ := a.EdgeStep(cur, m, true)
			buf = append(buf, e)
			cur = a.EdgeTo(e)
			cs++
		}
		for cs > cd {
			e, _ := a.EdgeStep(cur, m, false)
			buf = append(buf, e)
			cur = a.EdgeTo(e)
			cs--
		}
	}
	return buf
}

// MaxRouteLen implements Router.
func (g GreedyKD) MaxRouteLen() int {
	total := 0
	for m := 0; m < g.A.K(); m++ {
		total += g.A.Size(m) - 1
	}
	return total
}

// TorusGreedy routes on a Torus2D row-first, going around each ring the
// shorter way; ties (possible only for even n) go in the plus direction
// (right/down), which is what makes even-n torus edge rates direction-
// asymmetric.
type TorusGreedy struct {
	T *topology.Torus2D
}

// AppendRoute implements Router.
func (g TorusGreedy) AppendRoute(buf []int, src, dst int, _ *xrand.RNG) []int {
	t := g.T
	n := t.N()
	r1, c1 := t.Coords(src)
	r2, c2 := t.Coords(dst)
	buf = appendRingWalk(buf, t, n, r1, c1, c2, true)
	return appendRingWalk(buf, t, n, c2, r1, r2, false)
}

// appendRingWalk appends edges moving around one ring from position p1 to
// p2. horiz selects row movement (fixed row = fixedCoord) versus column
// movement (fixed col = fixedCoord).
func appendRingWalk(buf []int, t *topology.Torus2D, n, fixedCoord, p1, p2 int, horiz bool) []int {
	plus, minus := topology.WrapDist(p1, p2, n)
	dirPlus, dirMinus := topology.Down, topology.Up
	if horiz {
		dirPlus, dirMinus = topology.Right, topology.Left
	}
	cur := p1
	if plus <= minus { // tie goes plus
		for i := 0; i < plus; i++ {
			buf = appendTorusStep(buf, t, fixedCoord, cur, dirPlus, horiz)
			cur = (cur + 1) % n
		}
	} else {
		for i := 0; i < minus; i++ {
			buf = appendTorusStep(buf, t, fixedCoord, cur, dirMinus, horiz)
			cur = (cur + n - 1) % n
		}
	}
	return buf
}

func appendTorusStep(buf []int, t *topology.Torus2D, fixedCoord, cur int, d topology.Dir, horiz bool) []int {
	if horiz {
		return append(buf, t.EdgeIn(fixedCoord, cur, d))
	}
	return append(buf, t.EdgeIn(cur, fixedCoord, d))
}

// MaxRouteLen implements Router.
func (g TorusGreedy) MaxRouteLen() int { return 2 * (g.T.N() / 2) }

// CubeGreedy fixes hypercube address bits in canonical order 0..d-1 (§4.5).
type CubeGreedy struct {
	H *topology.Hypercube
}

// AppendRoute implements Router.
func (g CubeGreedy) AppendRoute(buf []int, src, dst int, _ *xrand.RNG) []int {
	h := g.H
	cur := src
	diff := src ^ dst
	for dim := 0; diff != 0; dim++ {
		if diff&1 != 0 {
			e := h.EdgeIn(cur, dim)
			buf = append(buf, e)
			cur ^= 1 << dim
		}
		diff >>= 1
	}
	return buf
}

// MaxRouteLen implements Router.
func (g CubeGreedy) MaxRouteLen() int { return g.H.D() }

// ButterflyRoute routes from a level-0 node to a level-d node: at level l it
// takes the cross edge exactly when the current row and the destination row
// differ in bit l. Every route has exactly d edges.
type ButterflyRoute struct {
	B *topology.Butterfly
}

// AppendRoute implements Router.
func (g ButterflyRoute) AppendRoute(buf []int, src, dst int, _ *xrand.RNG) []int {
	b := g.B
	level, row := b.NodeInfo(src)
	if level != 0 {
		panic("routing: butterfly source must be at level 0")
	}
	dl, drow := b.NodeInfo(dst)
	if dl != b.D() {
		panic("routing: butterfly destination must be at the last level")
	}
	for l := 0; l < b.D(); l++ {
		cross := (row^drow)&(1<<l) != 0
		buf = append(buf, b.EdgeIn(l, row, cross))
		if cross {
			row ^= 1 << l
		}
	}
	return buf
}

// MaxRouteLen implements Router.
func (g ButterflyRoute) MaxRouteLen() int { return g.B.D() }
