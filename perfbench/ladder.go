package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricVal is one entry of the result line's "metrics" object.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// obs collects per-layer observations by metric name; a metric reports
// the median of its observations.
type obs map[string][]float64

func (o obs) add(name string, v float64) { o[name] = append(o[name], v) }

// set replaces name's observations with the single value v.
func (o obs) set(name string, v float64) { o[name] = []float64{v} }

// ladderOut is one run of a workload's ladder.
type ladderOut struct {
	wall     float64 // seconds from the first engine call to the last result
	replicas int
	packets  int64 // measured packets delivered
	digest   string
}

// ladderSet is every ladder a run executed. Ladder i runs sub-seed
// i mod distinct; later runs of a sub-seed are repeats and must
// reproduce the first run's digest exactly.
type ladderSet struct {
	outs    []ladderOut
	first   []bool
	traced  []bool
	digests []string // by sub-seed
	reps    []int    // replicas by sub-seed
	gc      gcStats
	self    map[string]float64 // per-layer self seconds per traced ladder
}

// gcStats is the Go runtime's view of the ladder loop.
type gcStats struct {
	cycles   uint32
	pauseNs  uint64
	heapPeak uint64
}

// runLadders runs one(k, rec) until the deadline leaves no room for
// another ladder, after at least one pass over every sub-seed plus one
// repeat. With a recorder, passes over the sub-seeds alternate between
// traced and untraced, which gives the tracing overhead on equal work.
func runLadders(t *tally, rec *recorder, deadline time.Time, distinct int, one func(k int, rec *recorder) (ladderOut, error)) ladderSet {
	ls := ladderSet{digests: make([]string, distinct), reps: make([]int, distinct)}
	var ms0, ms runtime.MemStats
	runtime.ReadMemStats(&ms0)
	last := 0.0
	minLadders := distinct + 1
	if rec != nil {
		minLadders = 2 * distinct
	}
	for i := 0; ; i++ {
		if i >= minLadders && time.Now().Add(time.Duration(last*1e9)).After(deadline) {
			break
		}
		k := i % distinct
		var r *recorder
		if rec != nil && (i/distinct)%2 == 0 {
			r = rec
		}
		out, err := one(k, r)
		last = out.wall
		if !t.op(fmt.Sprintf("ladder %d (sub-seed %d)", i, k), err) {
			continue
		}
		first := ls.digests[k] == ""
		if first {
			ls.digests[k], ls.reps[k] = out.digest, out.replicas
		} else {
			t.check(out.digest == ls.digests[k], "ladder %d repeats sub-seed %d with digest %s, first run gave %s", i, k, out.digest, ls.digests[k])
		}
		ls.outs = append(ls.outs, out)
		ls.first = append(ls.first, first)
		ls.traced = append(ls.traced, r != nil)
		if rec != nil {
			runtime.ReadMemStats(&ms)
			ls.gc.heapPeak = max(ls.gc.heapPeak, ms.HeapSys)
		}
	}
	runtime.ReadMemStats(&ms)
	ls.gc.cycles = ms.NumGC - ms0.NumGC
	ls.gc.pauseNs = ms.PauseTotalNs - ms0.PauseTotalNs
	if n := len(ls.walls(true)); n > 0 {
		ls.self = layerSelf(rec.snapshot(), "ladder")
		for l := range ls.self {
			ls.self[l] /= float64(n)
		}
	}
	return ls
}

// walls returns the wall times of the ladders whose traced flag is tr.
func (ls ladderSet) walls(tr bool) []float64 {
	var w []float64
	for i, o := range ls.outs {
		if ls.traced[i] == tr {
			w = append(w, o.wall)
		}
	}
	return w
}

// endToEnd fills the end-to-end metrics of an in-process workload. A job
// is one ladder, as a sweepd job is. The library has no result cache, so
// every ladder is computed: misses are all ladders, hits the ladders of
// repeated sub-seeds, requested again and recomputed.
func (ls ladderSet) endToEnd(m map[string]metricVal, setups []float64, rss float64) {
	var walls, rates, miss, hit []float64
	total := 0.0
	for i, o := range ls.outs {
		walls = append(walls, o.wall)
		rates = append(rates, float64(o.packets)/o.wall)
		total += o.wall
		miss = append(miss, o.wall)
		if !ls.first[i] {
			hit = append(hit, o.wall)
		}
	}
	reps := 0
	for _, r := range ls.reps {
		reps += r
	}
	fmt.Printf("ladders: %d (%d sub-seeds), %s, each %.3f\n", len(ls.outs), len(ls.digests), describe("wall", walls), walls)
	fmt.Println(describe("miss latency (every ladder)", miss))
	fmt.Println(describe("hit latency (ladders of repeated sub-seeds)", hit))
	m["setup_s"] = metricVal{median(setups), "s"}
	m["wall_s"] = metricVal{median(walls), "s"}
	m["packets_per_s"] = metricVal{median(rates), "1/s"}
	m["replicas_used"] = metricVal{float64(reps) / float64(len(ls.reps)), "count"}
	m["peak_rss_mb"] = metricVal{rss, "MB"}
	m["jobs_per_s"] = metricVal{float64(len(ls.outs)) / total, "1/s"}
	m["miss_latency_p50_s"] = metricVal{finite(percentile(miss, 50)), "s"}
	m["miss_latency_p90_s"] = metricVal{finite(percentile(miss, 90)), "s"}
	m["hit_latency_p50_s"] = metricVal{finite(percentile(hit, 50)), "s"}
	m["hit_latency_p90_s"] = metricVal{finite(percentile(hit, 90)), "s"}
}

// perLayer adds the runtime and tracing metrics every in-process
// workload reports in a traced run.
func (ls ladderSet) perLayer(o obs) {
	o.set("go.gc_cycles", float64(ls.gc.cycles))
	o.set("go.gc_pause_s", float64(ls.gc.pauseNs)/1e9)
	o.set("go.heap_peak_mb", float64(ls.gc.heapPeak)/(1<<20))
	on, off := ls.walls(true), ls.walls(false)
	if len(on) > 0 && len(off) > 0 {
		o.set("trace.overhead_frac", median(on)/median(off)-1)
	}
	for l, s := range ls.self {
		o.set("layer."+l+".self_s", s)
	}
}

// peakRSSMB reads the peak resident set of a process from /proc.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// rhoName names a ladder point, as in "rho0.1".
func rhoName(rho float64) string { return "rho" + strconv.FormatFloat(rho, 'f', -1, 64) }

// subSeed derives ladder sub-seed k from the workload seed (splitmix64).
func subSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// setupSamples re-executes this benchmark reps times in set-up-only mode
// and times each child from its start to the line it prints just before
// its first engine call.
func setupSamples(reps int, args []string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for range reps {
		cmd := exec.Command(exe, append(args, "--setup-only")...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		dt := time.Since(start).Seconds()
		_, _ = io.Copy(io.Discard, stdout) // the child exits after "ready"; Wait reports failures
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up sample: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up sample printed %q (%v)", line, readErr)
		}
		out = append(out, dt)
	}
	return out, nil
}

// timed runs f and returns its duration in seconds.
func timed(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
