package workload

import (
	"fmt"
	"math"

	"repro/internal/queueing"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Analysis is the exact traffic view of (demand, router) on a network,
// computed before any packet is simulated. All rate quantities are stored
// at a per-node generation rate of 1 and scale linearly, so one Analysis
// answers every load point of a sweep.
type Analysis struct {
	// EdgeRates[e] is λ_e at per-node rate 1, from the traffic equations.
	EdgeRates []float64
	// Util[e] is ρ_e = λ_e·s_e at per-node rate 1.
	Util []float64
	// Bottleneck is the edge with the largest utilization and UtilPerRate
	// its utilization at per-node rate 1, so at per-node rate λ the
	// saturating edge runs at λ·UtilPerRate.
	Bottleneck  int
	UtilPerRate float64
	// LambdaStar is the analytic saturation rate λ* = 1/UtilPerRate: the
	// per-node generation rate at which the bottleneck edge reaches
	// utilization 1 (Theorem 6's stability boundary for this demand).
	LambdaStar float64
	// MeanHops is the expected route length n̄ under the demand.
	MeanHops float64

	svcMean    []float64
	numSources int
}

// Analyze lowers a Demand through the demand-matrix → queueing.Traffic
// bridge: every (source, destination) pair is walked through the router's
// steppers (randomized choice routers average uniformly, matching
// RandGreedy's fair coin) into an open-network Traffic whose traffic
// equations λ = a + λP are then solved exactly. svcMean optionally gives
// per-edge mean service times (nil = unit service).
func Analyze(net topology.Network, router routing.Router, demand *Demand, svcMean []float64) (*Analysis, error) {
	steppers, _, ok := routing.Steppers(router)
	if !ok {
		return nil, fmt.Errorf("workload: router %T exposes no steppers; cannot analyze exactly", router)
	}
	if svcMean != nil && len(svcMean) != net.NumEdges() {
		return nil, fmt.Errorf("workload: svcMean has %d entries, want %d", len(svcMean), net.NumEdges())
	}
	sources := topology.Sources(net)
	tr, meanHops := buildTraffic(net, steppers, demand, sources)
	return solveAnalysis(tr, meanHops, svcMean, len(sources))
}

// solveAnalysis solves the traffic equations of tr and derives the edge
// utilizations, the bottleneck and λ*.
func solveAnalysis(tr *queueing.Traffic, meanHops float64, svcMean []float64, numSources int) (*Analysis, error) {
	lambda, err := solveTraffic(tr)
	if err != nil {
		return nil, err
	}
	util, err := queueing.Utilizations(lambda, svcMean)
	if err != nil {
		return nil, err
	}
	bottleneck, maxUtil := queueing.Bottleneck(util)
	a := &Analysis{
		EdgeRates:   lambda,
		Util:        util,
		Bottleneck:  bottleneck,
		UtilPerRate: maxUtil,
		LambdaStar:  math.Inf(1),
		MeanHops:    meanHops,
		svcMean:     svcMean,
		numSources:  numSources,
	}
	if maxUtil > 0 {
		a.LambdaStar = 1 / maxUtil
	}
	return a, nil
}

// buildTraffic constructs the open-network traffic description induced by
// the demand matrix at per-node rate 1: external arrivals enter at each
// route's first edge and the routing chain's transition probabilities are
// flow-weighted over all (src, dst, choice) triples. It also returns the
// demand's mean route length.
//
// Accumulation-order contract: every accumulator (through, External, each
// transition's flow, totalHops) receives its float additions in the fixed
// order sources → destinations → steppers → hops. Float addition does not
// associate, so this order is part of the result: λ* = 1/max ρ_e sets
// every load point's NodeRate, and NodeRate drives every simulated
// arrival, so a last-ulp change here changes every seeded trajectory.
// Faster orders (e.g. aggregating per destination) are ruled out by that.
//
// The walk is map-free: a transition (prev → next) accumulates in one
// dense slot, slot[prev] + pos[next], where slot[prev] is prev's first
// slot and pos[next] is next's index among the out-edges of its tail
// (which is prev's head). That is O(Σ_v indeg·outdeg) floats, a few per
// edge. Routes[e] is rebuilt from the non-zero slots in out-edge order;
// neither solver depends on the order within Routes[e].
func buildTraffic(net topology.Network, steppers []routing.Stepper, demand *Demand, sources []int) (*queueing.Traffic, float64) {
	numEdges, numNodes := net.NumEdges(), net.NumNodes()
	head := make([]int32, numEdges)
	outStart := make([]int32, numNodes+1)
	for e := range numEdges {
		head[e] = int32(net.EdgeTo(e))
		outStart[net.EdgeFrom(e)+1]++
	}
	for v := range numNodes {
		outStart[v+1] += outStart[v]
	}
	// outEdges lists each node's out-edges in ascending edge order (the
	// CSR column array); pos[e] is e's index within its tail's list.
	outEdges := make([]int32, numEdges)
	pos := make([]int32, numEdges)
	fill := append([]int32(nil), outStart[:numNodes]...)
	for e := range numEdges {
		v := net.EdgeFrom(e)
		pos[e] = fill[v] - outStart[v]
		outEdges[fill[v]] = int32(e)
		fill[v]++
	}
	slot := make([]int32, numEdges+1)
	for e := range numEdges {
		h := head[e]
		slot[e+1] = slot[e] + outStart[h+1] - outStart[h]
	}
	flow := make([]float64, slot[numEdges])

	tr := queueing.NewTraffic(numEdges)
	through := make([]float64, numEdges)
	totalHops := 0.0
	var route []int
	for _, src := range sources {
		for dst := range numNodes {
			p := demand.Prob(src, dst)
			if p == 0 {
				continue
			}
			w := p / float64(len(steppers))
			for _, st := range steppers {
				route = st.AppendRoute(route[:0], src, dst, nil)
				prev := -1
				for _, edge := range route {
					totalHops += w
					through[edge] += w
					if prev == -1 {
						tr.External[edge] += w
					} else {
						flow[slot[prev]+pos[edge]] += w
					}
					prev = edge
				}
			}
		}
	}
	for e := range numEdges {
		next := outEdges[outStart[head[e]]:outStart[head[e]+1]]
		for k, f := range flow[slot[e]:slot[e+1]] {
			if f != 0 {
				tr.Routes[e] = append(tr.Routes[e], queueing.Transition{To: int(next[k]), Prob: f / through[e]})
			}
		}
	}
	return tr, totalHops / float64(len(sources))
}

// solveTraffic solves the traffic equations, using the exact dense solver
// for small networks and the fixed-point iteration beyond it.
func solveTraffic(tr *queueing.Traffic) ([]float64, error) {
	if len(tr.External) <= 1024 {
		return tr.SolveDense()
	}
	return tr.SolveIterative(1e-12, 100000)
}

// UtilAt returns the bottleneck utilization at per-node rate perNode.
func (a *Analysis) UtilAt(perNode float64) float64 { return perNode * a.UtilPerRate }

// MD1DelayAt returns the per-queue M/D/1 (or M/G/1 with the configured
// deterministic means) independence estimate of the mean packet delay at
// per-node rate perNode: T = Σ_e L_e / Λ by Little's law, +Inf at or
// beyond saturation. It is the pattern-aware generalization of §4.2's
// estimate, exact per queue but ignoring inter-queue dependence.
func (a *Analysis) MD1DelayAt(perNode float64) float64 {
	if a.UtilAt(perNode) >= 1 {
		return math.Inf(1)
	}
	totalArrival := perNode * float64(a.numSources)
	if totalArrival == 0 {
		return 0
	}
	totalN := 0.0
	for e, rate := range a.EdgeRates {
		s := 1.0
		if a.svcMean != nil {
			s = a.svcMean[e]
		}
		n, err := queueing.MD1Number(rate*perNode, s)
		if err != nil {
			return math.Inf(1)
		}
		totalN += n
	}
	return totalN / totalArrival
}
