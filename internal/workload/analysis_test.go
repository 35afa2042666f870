package workload

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/queueing"
	"repro/internal/routing"
	"repro/internal/topology"
)

// referenceBuildTraffic is the map-based buildTraffic the dense-slot walk
// replaced, kept verbatim as the bit-identity oracle: one NextEdge call
// and one EdgeTo call per hop, and one map per edge for the transition
// flows. It performs the same float additions in the same order, so every
// rate it leads to must match the production path bit for bit.
func referenceBuildTraffic(net topology.Network, steppers []routing.Stepper, demand *Demand, sources []int) (*queueing.Traffic, float64) {
	numEdges := net.NumEdges()
	tr := queueing.NewTraffic(numEdges)
	flow := make([]map[int]float64, numEdges)
	through := make([]float64, numEdges)
	totalHops := 0.0
	for _, src := range sources {
		for dst := 0; dst < net.NumNodes(); dst++ {
			p := demand.Prob(src, dst)
			if p == 0 {
				continue
			}
			w := p / float64(len(steppers))
			for _, st := range steppers {
				prev := -1
				for cur := src; ; {
					edge, done := st.NextEdge(cur, dst)
					if done {
						break
					}
					totalHops += w
					through[edge] += w
					if prev == -1 {
						tr.External[edge] += w
					} else {
						if flow[prev] == nil {
							flow[prev] = make(map[int]float64)
						}
						flow[prev][edge] += w
					}
					prev = edge
					cur = net.EdgeTo(edge)
				}
			}
		}
	}
	for e, m := range flow {
		for to, f := range m {
			tr.Routes[e] = append(tr.Routes[e], queueing.Transition{To: to, Prob: f / through[e]})
		}
	}
	return tr, totalHops / float64(len(sources))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sortedRoutes returns a copy of routes ordered by target, the canonical
// form for comparing transition lists as sets.
func sortedRoutes(routes []queueing.Transition) []queueing.Transition {
	out := slices.Clone(routes)
	slices.SortFunc(out, func(a, b queueing.Transition) int { return a.To - b.To })
	return out
}

// assertMatchesReference rebuilds the traffic of (net, router, demand) with
// both builders, requires the two Traffics to be equal (External and mean
// hops bit for bit, each Routes[e] as a set of bit-identical
// transitions), and requires got — the production Analysis — to equal the
// reference solve bit for bit. It returns the reference Analysis.
func assertMatchesReference(t *testing.T, net topology.Network, router routing.Router, demand *Demand, got *Analysis) *Analysis {
	t.Helper()
	steppers, _, ok := routing.Steppers(router)
	if !ok {
		t.Fatalf("router %T has no steppers", router)
	}
	sources := topology.Sources(net)
	refTr, refHops := referenceBuildTraffic(net, steppers, demand, sources)
	tr, hops := buildTraffic(net, steppers, demand, sources)
	if !sameBits(hops, refHops) {
		t.Fatalf("mean hops %v, reference %v", hops, refHops)
	}
	for e := range refTr.External {
		if !sameBits(tr.External[e], refTr.External[e]) {
			t.Fatalf("edge %d: External %v, reference %v", e, tr.External[e], refTr.External[e])
		}
		if a, b := sortedRoutes(tr.Routes[e]), sortedRoutes(refTr.Routes[e]); !slices.EqualFunc(a, b, func(x, y queueing.Transition) bool {
			return x.To == y.To && sameBits(x.Prob, y.Prob)
		}) {
			t.Fatalf("edge %d: Routes %v, reference %v", e, a, b)
		}
	}

	ref, err := solveAnalysis(refTr, refHops, nil, len(sources))
	if err != nil {
		t.Fatal(err)
	}
	for e := range ref.EdgeRates {
		if !sameBits(got.EdgeRates[e], ref.EdgeRates[e]) || !sameBits(got.Util[e], ref.Util[e]) {
			t.Fatalf("edge %d: rate/util %v/%v, reference %v/%v", e, got.EdgeRates[e], got.Util[e], ref.EdgeRates[e], ref.Util[e])
		}
	}
	if got.Bottleneck != ref.Bottleneck || !sameBits(got.UtilPerRate, ref.UtilPerRate) ||
		!sameBits(got.LambdaStar, ref.LambdaStar) || !sameBits(got.MeanHops, ref.MeanHops) {
		t.Fatalf("bottleneck %d, util/rate %v, lambda* %v, mean hops %v; reference %d, %v, %v, %v",
			got.Bottleneck, got.UtilPerRate, got.LambdaStar, got.MeanHops,
			ref.Bottleneck, ref.UtilPerRate, ref.LambdaStar, ref.MeanHops)
	}
	return ref
}

// assertBoundMatchesReference checks a bound scenario's analysis and every
// load point's per-node rate against the reference builder.
func assertBoundMatchesReference(t *testing.T, b *Bound) {
	t.Helper()
	ref := assertMatchesReference(t, b.Net, b.Router, b.Demand, b.Analysis)
	for i, pt := range b.Points {
		if want := pt.Load * ref.LambdaStar; !sameBits(pt.NodeRate, want) {
			t.Fatalf("point %d: NodeRate %v, reference %v", i, pt.NodeRate, want)
		}
	}
}

// TestAnalysisMatchesReferenceRegistry pins every built-in scenario's
// exact analysis to the map-based reference.
func TestAnalysisMatchesReferenceRegistry(t *testing.T) {
	for _, s := range Registry() {
		t.Run(s.Name, func(t *testing.T) {
			b, err := s.Bind()
			if err != nil {
				t.Fatal(err)
			}
			assertBoundMatchesReference(t, b)
		})
	}
}

// TestAnalysisMatchesReferenceArrays covers the array sizes the scenario
// workloads use, every array router, and the structured and skewed demands.
// bitrev binds only on power-of-two sides, so at 24² it must fail to bind.
// -short keeps the 8² and 16² cases: the reference walk at 24² and 32²
// costs most of a minute under the race detector and adds no concurrency.
func TestAnalysisMatchesReferenceArrays(t *testing.T) {
	for _, n := range []int{8, 16, 24, 32} {
		if testing.Short() && n > 16 {
			continue
		}
		for _, pat := range []string{"uniform", "hotspot", "transpose", "bitrev", "zipf"} {
			for _, router := range []string{"greedy-xy", "greedy-yx", "rand-greedy"} {
				t.Run(fmt.Sprintf("%dx%d/%s/%s", n, n, pat, router), func(t *testing.T) {
					t.Parallel()
					s := Scenario{
						Name:     "oracle",
						Topology: TopologySpec{Kind: "array", N: n},
						Router:   router,
						Pattern:  PatternSpec{Kind: pat},
						Loads:    []float64{0.5, 0.8, 0.9},
					}
					b, err := s.Bind()
					if pat == "bitrev" && n&(n-1) != 0 {
						if err == nil || !strings.Contains(err.Error(), "power-of-two") {
							t.Fatalf("bitrev on %d² bound (err %v), want a power-of-two error", n, err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					assertBoundMatchesReference(t, b)
				})
			}
		}
	}
}

// TestAnalysisMatchesReferenceTopologies covers the other scenario
// topologies (torus, linear, k-d array, hypercube) and, through Analyze
// directly, the butterfly, whose sources and destinations sit on its
// first and last levels.
func TestAnalysisMatchesReferenceTopologies(t *testing.T) {
	specs := []struct {
		topo     TopologySpec
		patterns []string
	}{
		{TopologySpec{Kind: "torus", N: 9}, []string{"uniform", "hotspot", "tornado", "zipf"}},
		{TopologySpec{Kind: "linear", N: 24}, []string{"uniform", "hotspot", "zipf"}},
		{TopologySpec{Kind: "kd", N: 4, K: 3}, []string{"uniform", "hotspot", "zipf"}},
		{TopologySpec{Kind: "cube", D: 7}, []string{"uniform", "hotspot", "bitrev", "bitcomp", "zipf"}},
	}
	for _, sp := range specs {
		for _, pat := range sp.patterns {
			t.Run(sp.topo.Kind+"/"+pat, func(t *testing.T) {
				s := Scenario{
					Name:     "oracle",
					Topology: sp.topo,
					Pattern:  PatternSpec{Kind: pat},
					Loads:    []float64{0.5, 0.9},
				}
				b, err := s.Bind()
				if err != nil {
					t.Fatal(err)
				}
				assertBoundMatchesReference(t, b)
			})
		}
	}

	t.Run("butterfly", func(t *testing.T) {
		// Destinations must sit on the last level; weight them unevenly by
		// row so the edge rates differ.
		bf := topology.NewButterfly(5)
		rows := bf.Rows()
		total := float64(rows * (rows + 1) / 2)
		demand := &Demand{pattern: "rowweighted", net: bf, prob: func(_, dst int) float64 {
			level, row := bf.NodeInfo(dst)
			if level != bf.D() {
				return 0
			}
			return float64(row+1) / total
		}}
		router := routing.ButterflyRoute{B: bf}
		an, err := Analyze(bf, router, demand, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, bf, router, demand, an)
	})
}
