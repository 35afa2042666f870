package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile read off fewer samples than that is a single slow sample,
// not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
// Failed operations enter xs as +Inf, so they count as slower than any
// limit. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The epsilon keeps p·n/100 from rounding up past an exact
// integer (90·100/100 must be rank 90, not 91).
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// highestPercentile returns the highest of the conventional percentiles
// 50, 90, 99 and 99.9 that still has at least minBeyond samples above it
// among n samples, or 0 when even the median does not (n < 20).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if n > 0 && n-rank(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// describe renders a latency sample as its median, the highest percentile
// the sample supports, and the sample count.
func describe(name string, xs []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d p50=%.4fs", name, len(xs), median(xs))
	if p := highestPercentile(len(xs)); p > 50 {
		fmt.Fprintf(&b, " p%g=%.4fs", p, percentile(xs, p))
	} else {
		fmt.Fprintf(&b, " (fewer than %d samples beyond any percentile above the median)", minBeyond)
	}
	return b.String()
}

// finite maps an infinite percentile (a failed operation) to the largest
// float, so the result line stays valid JSON; such a run also reports
// correct=false.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// digest accumulates simulated results into a SHA-256 over their exact
// bits, so two runs agree on it only when every float matches bit-for-bit.
type digest struct {
	buf []byte
}

func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
	}
}

func (d *digest) i64(vs ...int64) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v))
	}
}

func (d *digest) bytes(b []byte) {
	d.i64(int64(len(b)))
	d.buf = append(d.buf, b...)
}

func (d *digest) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:])
}
