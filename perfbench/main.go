// Command perfbench is the repository's benchmark. It runs one workload
// against this checkout's engines and sweep service, checks the
// simulated results, and prints every metric as the last line of its
// output:
//
//	perfbench --workload des-uniform32 --seed 1 --seconds 60 --trace 0
//
// It runs from the checkout root, where run.sh builds it and cmd/sweepd
// into .bench_build/ from source first. --trace 0 prints
// the end-to-end metrics; --trace 1 records spans around every call into
// the program, writes them to .bench_build/trace/, and prints the
// per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/buildinfo"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"packets_per_s", "1/s"},
	{"replicas_used", "count"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"miss_latency_p50_s", "s"},
	{"miss_latency_p90_s", "s"},
	{"hit_latency_p50_s", "s"},
	{"hit_latency_p90_s", "s"},
}

// perLayer lists the metrics a --trace 1 run prints, on every workload;
// a layer the workload does not run reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	each := func(prefix, unit string, points ...string) {
		for _, p := range points {
			add(unit, prefix+"."+p)
		}
	}
	des := []string{"rho0.5", "rho0.8", "rho0.9"}
	each("sim.sweep.point_s", "s", des...)
	each("sim.sweep.replicas", "count", des...)
	each("sim.run_s", "s", des...)
	each("sim.ns_per_packet", "ns", des...)
	add("count", "sim.allocs_per_run")
	add("s", "workload.bind_s")
	add("s", "serve.submit_s.p50", "serve.submit_s.p90", "serve.first_point_s.p50",
		"serve.point_gap_s.p50", "serve.finish_s.p50", "serve.overhead_s.p50")
	add("ratio", "serve.hit_bind_share")
	add("count", "serve.cache_hits", "serve.cache_misses", "serve.requeued", "serve.jobs_failed")
	add("B", "serve.journal_bytes", "serve.cache_bytes")
	add("count", "go.gc_cycles")
	add("s", "go.gc_pause_s")
	add("MB", "go.heap_peak_mb")
	add("frac", "trace.overhead_frac")
	add("s", "layer.sim.self_s", "layer.serve.self_s", "layer.bench.self_s")
	return defs
}

// workloadDef is one benchmark workload. setupReps > 0 marks an
// in-process workload whose set-up is sampled in that many child
// processes.
type workloadDef struct {
	run       func(e *env)
	setupReps int
}

var workloads = map[string]workloadDef{
	"des-uniform32": {runDES32, 5},
	"sweepd-mixed":  {func(e *env) { runSweepd(e, filepath.Join(".bench_build", "sweepd")) }, 0},
}

// result is the last line of the output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	start := time.Now()
	var (
		name    = flag.String("workload", "", "workload to run: des-uniform32 or sweepd-mixed")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 60, "how long an in-process workload measures")
		traced  = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		setup   = flag.Bool("setup-only", false, "stop before the first engine call (a set-up sample for a parent run)")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seed > 0, --seconds > 0 and --trace 0|1\n", sortedKeys(workloads))
		os.Exit(2)
	}
	e := &env{
		seed:      *seed,
		deadline:  start.Add(time.Duration(*seconds * float64(time.Second))),
		e2e:       make(map[string]metricVal),
		layer:     make(obs),
		setupOnly: *setup,
	}
	if *setup {
		wl.run(e)
		fmt.Fprintln(os.Stderr, "perfbench: set-up failed")
		os.Exit(1)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(work)
	e.work = work
	if *traced == 1 {
		e.rec = newRecorder()
	}
	if wl.setupReps > 0 {
		e.setups, err = setupSamples(wl.setupReps, []string{"--workload", *name, "--seed", strconv.FormatUint(*seed, 10)})
		e.t.op("sampling set-up", err)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s version=%s\n",
		*name, *seed, *seconds, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), buildinfo.Version())
	wl.run(e)
	fmt.Printf("digest %s %s\n", *name, e.dig.sum())

	res := result{Attempted: e.t.attempted, Failed: e.t.failed, Metrics: make(map[string]metricVal)}
	if *traced == 1 {
		for _, d := range perLayer {
			v := 0.0
			if xs := e.layer[d.name]; len(xs) > 0 {
				v = median(xs)
			}
			res.Metrics[d.name] = metricVal{finite(v), d.unit}
		}
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = e.rec.write(path)
		}
		e.t.op("writing the trace", err)
	} else {
		for _, d := range endToEnd {
			v, ok := e.e2e[d.name]
			e.t.check(ok, "%s: no %s measured", *name, d.name)
			res.Metrics[d.name] = metricVal{v.Value, d.unit}
		}
	}
	res.Attempted, res.Failed = e.t.attempted, e.t.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Attempted = max(res.Attempted, 1)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(work)
		os.Exit(1)
	}
}
