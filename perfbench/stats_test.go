package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestFailuresCountAsSlowest(t *testing.T) {
	xs := []float64{1, 2, 3, math.Inf(1)}
	if got := percentile(xs, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with a failed operation = %g, want +Inf", got)
	}
	if got := finite(percentile(xs, 90)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %g, want MaxFloat64", got)
	}
}

// The reported percentile must keep at least ten samples beyond it.
func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	for n := 1; n <= 2000; n++ {
		p := highestPercentile(n)
		if p == 0 {
			continue
		}
		if beyond := n - rank(p, n); beyond < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, p, beyond)
		}
	}
}

func TestDigestStable(t *testing.T) {
	build := func(delay float64) string {
		var d digest
		d.f64(delay, 2.5)
		d.i64(7, -3)
		d.bytes([]byte("points"))
		return d.sum()
	}
	a, b := build(166.6), build(166.6)
	if a != b {
		t.Fatalf("same inputs gave digests %s and %s", a, b)
	}
	if c := build(math.Nextafter(166.6, 200)); c == a {
		t.Fatal("a one-ulp change in a delay left the digest unchanged")
	}
	// Length-prefixed byte fields cannot trade bytes with their neighbors.
	var x, y digest
	x.bytes([]byte("ab"))
	x.bytes([]byte("c"))
	y.bytes([]byte("a"))
	y.bytes([]byte("bc"))
	if x.sum() == y.sum() {
		t.Fatal("differently split byte fields share a digest")
	}
}

func TestSubSeedsDistinctAndNonzero(t *testing.T) {
	seen := make(map[uint64]bool)
	for seed := uint64(1); seed <= 50; seed++ {
		for k := range 8 {
			s := subSeed(seed, k)
			if s == 0 || seen[s] {
				t.Fatalf("subSeed(%d, %d) = %d repeats or is zero", seed, k, s)
			}
			seen[s] = true
		}
	}
	if subSeed(3, 1) != subSeed(3, 1) {
		t.Fatal("subSeed is not a function of its inputs")
	}
}
