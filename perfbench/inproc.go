package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// env is one benchmark run: its inputs, its tally of operations, and the
// metrics it fills.
type env struct {
	seed     uint64
	deadline time.Time
	rec      *recorder // nil when untraced
	work     string    // scratch directory inside the checkout
	setups   []float64 // seconds from process start to the first engine call
	// setupOnly makes ready end the process: the run is one set-up
	// sample for a parent benchmark process.
	setupOnly bool
	t         tally
	e2e       map[string]metricVal
	layer     obs
	dig       digest
}

// ready marks the end of set-up, just before the first engine call. In a
// set-up sample it reports to the parent and exits.
func (e *env) ready() {
	if e.setupOnly {
		fmt.Println("ready")
		os.Exit(0)
	}
}

func selfRSS(e *env) float64 {
	rss, err := peakRSSMB("self")
	e.t.op("reading peak RSS", err)
	return rss
}

// des-uniform32: the paper's continuous-time model on the event engine,
// 32×32 uniform, through workload.Bind, adaptive on nproc workers. The
// target half-width (2.5% of T at rho 0.9) is loose enough that every
// point stops at the first check, so wall time does not depend on the
// seed.
func des32Scenario(seed uint64) workload.Scenario {
	return workload.Scenario{
		Name:        "des-uniform32",
		Topology:    workload.TopologySpec{Kind: "array", N: 32},
		Pattern:     workload.PatternSpec{Kind: "uniform"},
		Loads:       []float64{0.5, 0.8, 0.9},
		Horizon:     600,
		Warmup:      150,
		Seed:        seed,
		TargetCI:    0.8,
		MinReplicas: 4,
		MaxReplicas: 9,
	}
}

// bindScenario is the set-up of a scenario workload.
func bindScenario(e *env, sc workload.Scenario) (*workload.Bound, bool) {
	sp := e.rec.begin("setup", "bench", 0, "")
	defer e.rec.end(sp)
	var b *workload.Bound
	var err error
	bs := e.rec.begin("Scenario.Bind", "workload", sp, "")
	e.layer.set("workload.bind_s", timed(func() { b, err = sc.Bind() }))
	e.rec.end(bs)
	return b, e.t.op("binding "+sc.Name, err)
}

// finishInproc reports the common metrics of an in-process workload.
func finishInproc(e *env, ls ladderSet) {
	for name, xs := range e.layer {
		e.layer.set(name, median(xs))
	}
	ls.endToEnd(e.e2e, e.setups, selfRSS(e))
	if e.rec != nil {
		ls.perLayer(e.layer)
	}
	for _, s := range ls.digests {
		e.dig.bytes([]byte(s))
	}
}

func sameSim(a, b sim.Result) bool {
	return math.Float64bits(a.MeanDelay) == math.Float64bits(b.MeanDelay) &&
		math.Float64bits(a.MeanN) == math.Float64bits(b.MeanN) &&
		math.Float64bits(a.Delay.StdDev()) == math.Float64bits(b.Delay.StdDev()) &&
		a.Generated == b.Generated && a.Delivered == b.Delivered
}

func runDES32(e *env) {
	ctx := context.Background()
	sc := des32Scenario(e.seed)
	b, ok := bindScenario(e, sc)
	if !ok {
		return
	}
	e.ready()
	opts := sc.SweepOpts(runtime.NumCPU())
	names := make([]string, len(b.Configs))
	for i, l := range sc.Loads {
		names[i] = rhoName(l)
	}
	first := make([]sim.ReplicaSet, len(b.Configs))
	ls := runLadders(&e.t, e.rec, e.deadline, 4, func(k int, rec *recorder) (ladderOut, error) {
		root := rec.begin("ladder", "bench", 0, "")
		defer rec.end(root)
		var out ladderOut
		var d digest
		seed := subSeed(e.seed, k)
		start := time.Now()
		for i, cfg := range b.Configs {
			c := cfg
			c.Seed = seed
			sp := rec.begin("sim.RunCellAdaptive", "sim", root, "")
			var rs sim.ReplicaSet
			var err error
			dt := timed(func() { rs, _, err = sim.RunCellAdaptive(ctx, c, opts, nil, false) })
			rec.end(sp)
			if err != nil {
				return out, fmt.Errorf("des32 %s: %w", names[i], err)
			}
			if k == 0 {
				first[i] = rs
			}
			e.layer.add("sim.sweep.point_s."+names[i], dt)
			e.layer.add("sim.sweep.replicas."+names[i], float64(rs.ReplicasUsed))
			d.f64(rs.MeanDelay, rs.DelayCI, rs.MeanN)
			d.i64(int64(rs.ReplicasUsed))
			p := point{label: "des32 " + names[i], n: 32, uniform: true, nodeRate: c.NodeRate, horizon: c.Horizon,
				meanDelay: rs.MeanDelay, delayCI: rs.DelayCI, meanN: rs.MeanN}
			for _, r := range rs.Replicas {
				d.f64(r.MeanDelay, r.MeanN, r.Delay.StdDev())
				d.i64(r.Generated, r.Delivered)
				p.generated += r.Generated
				p.delivered += r.Delivered
			}
			out.replicas += rs.ReplicasUsed
			out.packets += p.delivered
			e.t.checkPoint(p)
		}
		out.wall = time.Since(start).Seconds()
		out.digest = d.sum()
		return out, nil
	})
	if e.rec != nil {
		cs := make([]sim.Config, len(b.Configs))
		for i := range b.Configs {
			cs[i] = b.Configs[i]
			cs[i].Seed = subSeed(e.seed, 0)
		}
		sp := e.rec.begin("sim.StreamSweepAdaptive", "sim", 0, "")
		sim.StreamSweepAdaptive(ctx, cs, opts, func(i int, rs sim.ReplicaSet, err error) {
			if e.t.op("StreamSweepAdaptive "+names[i], err) {
				e.t.check(math.Float64bits(rs.MeanDelay) == math.Float64bits(first[i].MeanDelay) && rs.ReplicasUsed == first[i].ReplicasUsed,
					"des32 %s: StreamSweepAdaptive differs from RunCellAdaptive", names[i])
			}
		})
		e.rec.end(sp)
		var runner sim.Runner
		for i, c := range cs {
			c.Seed = xrand.Split(c.Seed, 0).Uint64()
			if _, err := runner.Run(c); !e.t.op("runner probe "+names[i], err) {
				continue
			}
			var res sim.Result
			var err error
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			pr := e.rec.begin("sim.Runner.Run", "sim", 0, "")
			dt := timed(func() { res, err = runner.Run(c) })
			e.rec.end(pr)
			runtime.ReadMemStats(&ms1)
			if !e.t.op("runner probe "+names[i], err) {
				continue
			}
			e.t.check(sameSim(res, first[i].Replicas[0]), "des32 %s: direct Runner.Run differs from replica 0 of the cell", names[i])
			e.layer.set("sim.run_s."+names[i], dt)
			e.layer.set("sim.ns_per_packet."+names[i], dt*1e9/float64(res.Generated))
			e.layer.add("sim.allocs_per_run", float64(ms1.Mallocs-ms0.Mallocs))
		}
	}
	finishInproc(e, ls)
}
