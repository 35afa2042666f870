package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/bounds"
)

// tally counts attempted and failed operations. Engine calls, HTTP
// requests and output checks are all operations; failed_frac is
// failed/attempted.
type tally struct {
	attempted, failed int
}

// op records one engine call or request and reports whether it succeeded.
func (t *tally) op(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s: %v\n", what, err)
		return false
	}
	return true
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED "+format+"\n", args...)
	}
	return ok
}

// Tolerances, fixed before any result was looked at.
const (
	// statSlack is the relative slack in Little's law for estimation
	// noise in the measured N and T on short horizons.
	statSlack = 0.02
	// seMult is how many standard errors of the delay estimate the
	// bounds may be missed by before a point fails.
	seMult = 4
)

// point is what the output checks need from one simulated ladder point.
type point struct {
	label     string
	n         int     // array side
	uniform   bool    // the paper's bounds apply only to uniform traffic
	slotted   bool    // slotted engine: delays count whole slots
	nodeRate  float64 // packets per node per unit time (per slot)
	horizon   float64 // measured time
	meanDelay float64
	delayCI   float64 // 95% half-width across replicas (Inf or 0 when unknown)
	meanN     float64
	generated int64 // -1 when the result does not report it
	delivered int64
}

// censorFrac is the horizon-censoring share: packets born in the last
// 2(n-1) time units of the horizon may still be in flight when it ends
// and then never report a delay, and the packets that miss are the ones
// on long routes. The delivered-packet mean is biased low by at most the
// share of births in that window; symmetrically, packets born before
// the window add to N without adding to T.
func (p point) censorFrac() float64 {
	return math.Min(1, float64(bounds.MaxRouteLen(p.n))/p.horizon)
}

// se is the standard error of the delay estimate, 0 when unknown (one
// replica): the other slack terms then carry the check.
func (p point) se() float64 {
	if math.IsInf(p.delayCI, 0) || math.IsNaN(p.delayCI) || p.delayCI <= 0 {
		return 0
	}
	return p.delayCI / 1.96
}

// checkPoint runs every output check that applies to p.
func (t *tally) checkPoint(p point) {
	censor := p.censorFrac()
	slot := 0.0
	if p.slotted {
		// A slotted packet waits for the next slot boundary and counts
		// whole slots; the continuous-time bounds shift by up to a slot.
		slot = 1
	}
	if p.uniform {
		lb := bounds.BestLowerBound(p.n, p.nodeRate) * (1 - censor)
		ub := bounds.UpperBoundT(p.n, p.nodeRate)
		lo := lb - slot - seMult*p.se()
		hi := ub + slot + seMult*p.se()
		t.check(p.meanDelay >= lo && p.meanDelay <= hi,
			"%s: T=%.4f outside the paper's bounds [%.4f, %.4f] (censoring share %.3f)", p.label, p.meanDelay, lo, hi, censor)
	}
	lambda := p.nodeRate * float64(p.n*p.n)
	want := lambda * p.meanDelay
	tol := want*(2*censor+statSlack) + seMult*lambda*p.se()
	t.check(math.Abs(p.meanN-want) <= tol,
		"%s: Little's law N=%.4f vs Λ·T=%.4f (tolerance %.4f)", p.label, p.meanN, want, tol)
	if p.generated >= 0 {
		t.check(p.generated >= p.delivered, "%s: generated %d < delivered %d", p.label, p.generated, p.delivered)
	}
}
