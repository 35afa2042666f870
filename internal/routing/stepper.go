package routing

import (
	"math/bits"

	"repro/internal/topology"
	"repro/internal/xrand"
)

// Stepper is the incremental form of a deterministic Router. Greedy routes
// on array-like networks are fully determined by the (current node,
// destination) pair, so a packet does not need to carry a materialized edge
// slice: the simulator stores only (cur, dst) and asks for one edge at a
// time. AppendRoute remains the reference implementation; the two must agree
// edge for edge (asserted by TestStepperMatchesAppendRoute). Every Stepper
// is also a deterministic Router, so whole-route consumers (the exact
// demand analysis) walk a route with one AppendRoute call and a nil rng.
//
// Implementations must be safe for concurrent use: NextEdge and
// RemainingHops are pure functions of their arguments.
type Stepper interface {
	Router
	// NextEdge returns the next edge of the route from cur to dst, or
	// done = true when cur == dst (no edge).
	NextEdge(cur, dst int) (edge int, done bool)
	// RemainingHops returns the number of edges left on the route from cur
	// to dst; zero exactly when cur == dst.
	RemainingHops(cur, dst int) int
}

// ChoiceRouter is implemented by randomized routers whose per-packet
// randomness collapses to a single generation-time choice among a fixed set
// of deterministic steppers (e.g. RandGreedy's row-first/column-first coin).
// The simulator draws Choose once per packet and stores the index.
type ChoiceRouter interface {
	// Steppers returns the deterministic steppers a packet may follow.
	Steppers() []Stepper
	// Choose samples the stepper index for one packet. It must consume
	// exactly the same rng variates AppendRoute would, so that seeded runs
	// are identical between the incremental and materialized paths.
	Choose(rng *xrand.RNG) int
}

// Steppers returns the incremental steppers for r and a per-packet choice
// function, or ok = false when r supports only AppendRoute. For
// deterministic routers choose is nil and the single stepper applies to
// every packet.
func Steppers(r Router) (steppers []Stepper, choose func(*xrand.RNG) int, ok bool) {
	if cr, isChoice := r.(ChoiceRouter); isChoice {
		return cr.Steppers(), cr.Choose, true
	}
	if s, isStepper := r.(Stepper); isStepper {
		return []Stepper{s}, nil, true
	}
	return nil, nil, false
}

// NextEdge implements Stepper: row edges while the column is wrong, then
// column edges.
func (g GreedyXY) NextEdge(cur, dst int) (int, bool) {
	r1, c1 := g.A.Coords(cur)
	r2, c2 := g.A.Coords(dst)
	return arrayStep(g.A, r1, c1, r2, c2, true)
}

// RemainingHops implements Stepper.
func (g GreedyXY) RemainingHops(cur, dst int) int { return g.A.Distance(cur, dst) }

// NextEdge implements Stepper: column edges while the row is wrong, then row
// edges.
func (g GreedyYX) NextEdge(cur, dst int) (int, bool) {
	r1, c1 := g.A.Coords(cur)
	r2, c2 := g.A.Coords(dst)
	return arrayStep(g.A, r1, c1, r2, c2, false)
}

// RemainingHops implements Stepper.
func (g GreedyYX) RemainingHops(cur, dst int) int { return g.A.Distance(cur, dst) }

// arrayStep picks the next greedy edge on an array; rowFirst selects which
// coordinate is corrected first.
func arrayStep(a *topology.Array2D, r1, c1, r2, c2 int, rowFirst bool) (int, bool) {
	if rowFirst && c1 != c2 {
		return horizontalEdge(a, r1, c1, c2), false
	}
	if r1 != r2 {
		return verticalEdge(a, c1, r1, r2), false
	}
	if c1 != c2 {
		return horizontalEdge(a, r1, c1, c2), false
	}
	return 0, true
}

func horizontalEdge(a *topology.Array2D, r, c1, c2 int) int {
	d := topology.Right
	if c1 > c2 {
		d = topology.Left
	}
	e, _ := a.EdgeIn(r, c1, d)
	return e
}

func verticalEdge(a *topology.Array2D, c, r1, r2 int) int {
	d := topology.Down
	if r1 > r2 {
		d = topology.Up
	}
	e, _ := a.EdgeIn(r1, c, d)
	return e
}

// Steppers implements ChoiceRouter: index 0 is row-first, index 1 is
// column-first, matching the branch order of AppendRoute.
func (g RandGreedy) Steppers() []Stepper {
	return []Stepper{GreedyXY{A: g.A}, GreedyYX{A: g.A}}
}

// Choose implements ChoiceRouter with the same fair coin AppendRoute flips.
func (g RandGreedy) Choose(rng *xrand.RNG) int {
	if rng.Bernoulli(0.5) {
		return 0
	}
	return 1
}

// NextEdge implements Stepper.
func (g LinearRoute) NextEdge(cur, dst int) (int, bool) {
	switch {
	case cur < dst:
		return g.L.EdgeRight(cur), false
	case cur > dst:
		return g.L.EdgeLeft(cur), false
	default:
		return 0, true
	}
}

// RemainingHops implements Stepper.
func (g LinearRoute) RemainingHops(cur, dst int) int { return abs(cur - dst) }

// NextEdge implements Stepper: correct the lowest-index wrong dimension,
// matching AppendRoute's dimension order.
func (g GreedyKD) NextEdge(cur, dst int) (int, bool) {
	a := g.A
	for m := 0; m < a.K(); m++ {
		cs, cd := a.Coord(cur, m), a.Coord(dst, m)
		if cs == cd {
			continue
		}
		e, _ := a.EdgeStep(cur, m, cs < cd)
		return e, false
	}
	return 0, true
}

// RemainingHops implements Stepper.
func (g GreedyKD) RemainingHops(cur, dst int) int { return g.A.Distance(cur, dst) }

// NextEdge implements Stepper: around the column ring the shorter way (ties
// to plus), then the row ring, matching AppendRoute. The shorter way never
// changes mid-route: each step strictly shrinks the chosen direction's
// distance, so the incremental decision is stable.
func (g TorusGreedy) NextEdge(cur, dst int) (int, bool) {
	t := g.T
	n := t.N()
	r1, c1 := t.Coords(cur)
	r2, c2 := t.Coords(dst)
	if c1 != c2 {
		plus, minus := topology.WrapDist(c1, c2, n)
		if plus <= minus {
			return t.EdgeIn(r1, c1, topology.Right), false
		}
		return t.EdgeIn(r1, c1, topology.Left), false
	}
	if r1 != r2 {
		plus, minus := topology.WrapDist(r1, r2, n)
		if plus <= minus {
			return t.EdgeIn(r1, c1, topology.Down), false
		}
		return t.EdgeIn(r1, c1, topology.Up), false
	}
	return 0, true
}

// RemainingHops implements Stepper.
func (g TorusGreedy) RemainingHops(cur, dst int) int {
	t := g.T
	n := t.N()
	r1, c1 := t.Coords(cur)
	r2, c2 := t.Coords(dst)
	cp, cm := topology.WrapDist(c1, c2, n)
	rp, rm := topology.WrapDist(r1, r2, n)
	return min(cp, cm) + min(rp, rm)
}

// NextEdge implements Stepper: fix the lowest differing address bit, the
// canonical order of AppendRoute.
func (g CubeGreedy) NextEdge(cur, dst int) (int, bool) {
	diff := cur ^ dst
	if diff == 0 {
		return 0, true
	}
	return g.H.EdgeIn(cur, bits.TrailingZeros64(uint64(diff))), false
}

// RemainingHops implements Stepper.
func (g CubeGreedy) RemainingHops(cur, dst int) int {
	return bits.OnesCount64(uint64(cur ^ dst))
}

// NextEdge implements Stepper: at level l take the cross edge exactly when
// the current and destination rows differ in bit l. Unlike AppendRoute this
// accepts any intermediate node, not just level-0 sources.
func (g ButterflyRoute) NextEdge(cur, dst int) (int, bool) {
	b := g.B
	level, row := b.NodeInfo(cur)
	if level == b.D() {
		return 0, true
	}
	_, drow := b.NodeInfo(dst)
	cross := (row^drow)&(1<<level) != 0
	return b.EdgeIn(level, row, cross), false
}

// RemainingHops implements Stepper.
func (g ButterflyRoute) RemainingHops(cur, dst int) int {
	level, _ := g.B.NodeInfo(cur)
	return g.B.D() - level
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
