package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/sim"
	"repro/internal/stepsim"
	"repro/internal/workload"
)

// sweepd-mixed: cmd/sweepd in durable mode (journal on local disk, one
// job worker, one engine goroutine per job), driven closed-loop by two
// clients. Each client repeats a fresh 16×16 spec (a miss: journal, run,
// checkpoint, cache put) followed by two resubmissions of its own
// completed specs (hits: bind, key, cache read), about half of them with
// the JSON fields reordered.
const (
	sweepdClients = 2
	sweepdSpawns  = 11 // set-up repetitions; the last child serves the run
	sweepdHorizon = 300
	sweepdWarmup  = 100
	sweepdN       = 16
	opsPerClient  = 225 // 150 misses and 300 hits in all; p90 needs 100 of each
	probeSpecs    = 16  // specs re-bound and re-run in the client when traced
)

var sweepdLoads = []float64{0.3, 0.6, 0.8}

// field is one key of a scenario document, with its value as raw JSON.
type field struct{ key, val string }

// spec is one fresh scenario a client submits.
type spec struct {
	name    string
	engine  string // "event" or "slotted"
	uniform bool
	fields  []field
	doc     []byte  // the result document its miss produced
	latency float64 // the miss's POST-to-done seconds
}

// body renders the submit request, with the scenario's fields shuffled
// when rng is non-nil.
func (s *spec) body(rng *rand.Rand) []byte {
	fs := append([]field(nil), s.fields...)
	if rng != nil {
		rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
	}
	var b bytes.Buffer
	b.WriteString(`{"scenario":{`)
	for i, f := range fs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", f.key, f.val)
	}
	fmt.Fprintf(&b, `},"engine":%q}`, s.engine)
	return b.Bytes()
}

// specClasses is the cycle fresh specs follow: both engines, both
// patterns, and warm starts on half the slotted specs. A fixed cycle
// keeps the workload's composition, and so its latency mix, the same
// for every seed; the seed picks the specs' own seeds and which
// completed specs are resubmitted.
var specClasses = []struct {
	engine, pattern string
	warm            bool
}{
	{"event", "uniform", false},
	{"slotted", "hotspot", true},
	{"event", "hotspot", false},
	{"slotted", "uniform", false},
}

// hitSlotted says which resubmissions target a slotted spec: one in
// three, so the median hit is an event-engine spec (one bind before the
// cache lookup) and the p90 a slotted one (two binds).
func hitSlotted(i int) bool { return i%3 == 2 }

// newSpec draws fresh spec i of client c.
func newSpec(rng *rand.Rand, c, i int) *spec {
	cl := specClasses[i%len(specClasses)]
	s := &spec{name: fmt.Sprintf("mixed-c%d-%d", c, i), engine: cl.engine, uniform: cl.pattern == "uniform"}
	pattern := `{"kind":"uniform"}`
	if !s.uniform {
		pattern = `{"kind":"hotspot","k":4,"weight":0.2}`
	}
	loads := make([]string, len(sweepdLoads))
	for j, l := range sweepdLoads {
		loads[j] = strconv.FormatFloat(l, 'f', -1, 64)
	}
	s.fields = []field{
		{"name", strconv.Quote(s.name)},
		{"topology", fmt.Sprintf(`{"kind":"array","n":%d}`, sweepdN)},
		{"pattern", pattern},
		{"loads", "[" + strings.Join(loads, ",") + "]"},
		{"horizon", strconv.Itoa(sweepdHorizon)},
		{"warmup", strconv.Itoa(sweepdWarmup)},
		{"replicas", "2"},
		{"seed", strconv.FormatUint(rng.Uint64()|1, 10)},
	}
	if cl.warm {
		s.fields = append(s.fields, field{"warmStart", "true"}, field{"rewarmSlots", "50"})
	}
	return s
}

// child is a running sweepd process.
type child struct {
	cmd    *exec.Cmd
	base   string
	out    *os.File
	reader chan struct{} // closed when the child's stdout reaches EOF
}

// spawn starts sweepd on dir and returns once /healthz answers 200, with
// the seconds from spawn to that answer.
func spawn(bin, dir string, hc *http.Client) (*child, float64, error) {
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	r, w, err := os.Pipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir, "-workers", "1", "-sim-workers", "1")
	cmd.Stdout, cmd.Stderr = w, logf
	err = cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		return nil, 0, fmt.Errorf("starting sweepd: %w", err)
	}
	c := &child{cmd: cmd, out: r, reader: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(c.reader)
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "sweepd: listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case a := <-addr:
		c.base = "http://" + a
	case <-c.reader:
		c.stop()
		return nil, 0, errors.New("sweepd exited before listening")
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, 0, errors.New("sweepd did not report its address within 30s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, 0, errors.New("sweepd /healthz did not answer 200 within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return c, time.Since(start).Seconds(), nil
}

// stop sends SIGTERM, kills the child if it has not exited after 15s,
// and waits for it and its stdout reader.
func (c *child) stop() {
	// Signal fails only when the child has already exited; Wait reaps
	// it either way, and its exit status after SIGTERM is not a result.
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
	<-c.reader
	c.out.Close()
}

// pointDoc mirrors the fields of serve.PointDoc the checks read.
type pointDoc struct {
	Index     int     `json:"index"`
	NodeRate  float64 `json:"nodeRate"`
	MeanDelay float64 `json:"meanDelay"`
	DelayCI   float64 `json:"delayCI"`
	MeanN     float64 `json:"meanN"`
	Replicas  int     `json:"replicas"`
}

// clientOut is what one client measured.
type clientOut struct {
	t                                tally
	miss, hit                        []float64 // seconds; +Inf for a failed operation
	submit, firstPoint, gaps, finish []float64
	tracedMiss, plainMiss            []float64
	first, last                      time.Time
	specs                            []*spec
}

// runClient executes client c's operations in order, each after the
// previous one completes: a miss, then two hits, and again. Traced runs
// trace alternate groups of three, which gives the tracing overhead.
func runClient(hc *http.Client, base string, seed uint64, c, ops int, rec *recorder) *clientOut {
	out := &clientOut{}
	rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
	hits := 0
	for i := range ops {
		var r *recorder
		if rec != nil && i%6 < 3 {
			r = rec
		}
		if i%3 == 0 {
			s := newSpec(rng, c, len(out.specs))
			out.specs = append(out.specs, s)
			lat := out.doMiss(hc, base, s, r)
			out.miss = append(out.miss, lat)
			if r != nil {
				out.tracedMiss = append(out.tracedMiss, lat)
			} else {
				out.plainMiss = append(out.plainMiss, lat)
			}
			continue
		}
		s := pickDone(rng, out.specs, hitSlotted(hits))
		hits++
		var shuffle *rand.Rand
		if rng.IntN(2) == 0 {
			shuffle = rng
		}
		out.hit = append(out.hit, out.doHit(hc, base, s, s.body(shuffle), r))
	}
	return out
}

// pickDone draws one of specs on the requested engine class, or the
// latest spec when none is on it yet.
func pickDone(rng *rand.Rand, specs []*spec, slotted bool) *spec {
	var on []*spec
	for _, s := range specs {
		if (s.engine == "slotted") == slotted {
			on = append(on, s)
		}
	}
	if len(on) == 0 {
		return specs[len(specs)-1]
	}
	return on[rng.IntN(len(on))]
}

func (o *clientOut) mark(start, end time.Time) {
	if o.first.IsZero() || start.Before(o.first) {
		o.first = start
	}
	if end.After(o.last) {
		o.last = end
	}
}

type submitResp struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

func post(hc *http.Client, base string, body []byte) (int, submitResp, error) {
	var sr submitResp
	resp, err := hc.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, sr, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, sr, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, sr, fmt.Errorf("POST answered %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, sr, json.Unmarshal(data, &sr)
}

// doMiss submits a fresh spec, follows its SSE stream to the terminal
// event and fetches its result document. It returns the POST-to-done
// latency, +Inf on failure.
func (o *clientOut) doMiss(hc *http.Client, base string, s *spec, rec *recorder) float64 {
	t0 := time.Now()
	code, sr, err := post(hc, base, s.body(nil))
	t1 := time.Now()
	if err == nil && (code != http.StatusAccepted || sr.Cached) {
		err = fmt.Errorf("fresh spec answered %d cached=%v", code, sr.Cached)
	}
	if !o.t.op("submitting "+s.name, err) {
		return math.Inf(1)
	}
	o.submit = append(o.submit, t1.Sub(t0).Seconds())
	var times []time.Time
	var points [][]byte
	done := false
	err = events(hc, base, sr.ID, func(typ string, data []byte, at time.Time) error {
		switch typ {
		case "point":
			times = append(times, at)
			points = append(points, data)
			return nil
		case "done":
			done = true
			times = append(times, at)
			return nil
		}
		return fmt.Errorf("event %s: %s", typ, data)
	})
	if err == nil && !done {
		err = errors.New("stream ended without a terminal event")
	}
	if !o.t.op("streaming "+sr.ID, err) {
		return math.Inf(1)
	}
	end := times[len(times)-1]
	o.mark(t0, end)
	job := rec.record("job", "serve", 0, sr.ID, t0, end)
	rec.record("submit", "serve", job, sr.ID, t0, t1)
	prev := t1
	for i, at := range times {
		name := "point"
		switch {
		case i == 0:
			name = "wait"
			o.firstPoint = append(o.firstPoint, at.Sub(t1).Seconds())
		case i == len(times)-1:
			name = "finish"
			o.finish = append(o.finish, at.Sub(prev).Seconds())
		default:
			o.gaps = append(o.gaps, at.Sub(prev).Seconds())
		}
		rec.record(name, "serve", job, sr.ID, prev, at)
		prev = at
	}
	lat := end.Sub(t0).Seconds()
	s.latency = lat
	doc, err := fetchResult(hc, base, sr.ID)
	if !o.t.op("fetching the result of "+sr.ID, err) {
		return lat
	}
	s.doc = doc
	o.checkStream(s, points)
	return lat
}

// checkStream checks the SSE points against the result document: every
// point exactly once, in order, byte-identical to the stored one, and
// within the output checks.
func (o *clientOut) checkStream(s *spec, points [][]byte) {
	var doc struct {
		Points []json.RawMessage `json:"points"`
	}
	if !o.t.op("decoding the result of "+s.name, json.Unmarshal(s.doc, &doc)) {
		return
	}
	o.t.check(len(points) == len(sweepdLoads) && len(doc.Points) == len(sweepdLoads),
		"%s: %d SSE points and %d stored points, want %d", s.name, len(points), len(doc.Points), len(sweepdLoads))
	for i := range min(len(points), len(doc.Points)) {
		var pd pointDoc
		if !o.t.op("decoding a point of "+s.name, json.Unmarshal(points[i], &pd)) {
			continue
		}
		o.t.check(pd.Index == i && bytes.Equal(points[i], doc.Points[i]),
			"%s: SSE point %d (index %d) is not stored point %d", s.name, i, pd.Index, i)
		o.t.checkPoint(point{label: s.name + " " + rhoName(sweepdLoads[i]), n: sweepdN, uniform: s.uniform,
			slotted: s.engine == "slotted", nodeRate: pd.NodeRate, horizon: sweepdHorizon,
			meanDelay: pd.MeanDelay, delayCI: pd.DelayCI, meanN: pd.MeanN, generated: -1})
	}
}

// doHit resubmits a completed spec, which must come back from the cache
// byte-identical to its miss's document.
func (o *clientOut) doHit(hc *http.Client, base string, s *spec, body []byte, rec *recorder) float64 {
	t0 := time.Now()
	code, sr, err := post(hc, base, body)
	t1 := time.Now()
	if err == nil && (code != http.StatusOK || !sr.Cached) {
		err = fmt.Errorf("resubmission answered %d cached=%v", code, sr.Cached)
	}
	if !o.t.op("resubmitting "+s.name, err) {
		return math.Inf(1)
	}
	rec.record("hit", "serve", 0, "", t0, t1)
	o.mark(t0, t1)
	o.t.check(s.doc != nil && bytes.Equal(sr.Result, s.doc), "%s: cached document differs from the miss's document", s.name)
	return t1.Sub(t0).Seconds()
}

// events reads a job's SSE stream, calling on for each event with its
// arrival time, until the server closes the stream.
func events(hc *http.Client, base, id string, on func(typ string, data []byte, at time.Time) error) error {
	resp, err := hc.Get(base + "/v1/sweeps/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var typ string
	var data []byte
	lastID := 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if typ != "" {
				if err := on(typ, data, time.Now()); err != nil {
					return err
				}
			}
			typ, data = "", nil
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(line[4:])
			if err != nil || n != lastID+1 {
				return fmt.Errorf("event id %q after %d: not the next id", line[4:], lastID)
			}
			lastID = n
		case strings.HasPrefix(line, "event: "):
			typ = line[7:]
		case strings.HasPrefix(line, "data: "):
			data = []byte(line[6:])
		}
	}
	return sc.Err()
}

func fetchResult(hc *http.Client, base, id string) ([]byte, error) {
	resp, err := hc.Get(base + "/v1/sweeps/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	if doc.Status != "done" || len(doc.Result) == 0 {
		return nil, fmt.Errorf("job %s is %q with %d result bytes", id, doc.Status, len(doc.Result))
	}
	return doc.Result, nil
}

// scrape reads the named counters off /metrics.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir, skipping the
// subdirectory skip.
func dirBytes(dir, skip string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path == skip {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func runSweepd(e *env, bin string) {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: sweepdClients, MaxIdleConnsPerHost: sweepdClients}}
	defer hc.CloseIdleConnections()
	var (
		setups []float64
		ch     *child
		dir    string
	)
	for i := range sweepdSpawns {
		dir = filepath.Join(e.work, fmt.Sprintf("sweepd-%d", i))
		sp := e.rec.begin("spawn", "serve", 0, "")
		c, dt, err := spawn(bin, dir, hc)
		e.rec.end(sp)
		if !e.t.op("spawning sweepd", err) {
			return
		}
		setups = append(setups, dt)
		if i < sweepdSpawns-1 {
			c.stop()
		} else {
			ch = c
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			ch.stop()
		}
	}()

	outs := make([]*clientOut, sweepdClients)
	var wg sync.WaitGroup
	for c := range sweepdClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[c] = runClient(hc, ch.base, e.seed, c, opsPerClient, e.rec)
		}()
	}
	wg.Wait()

	var all clientOut
	for _, o := range outs {
		e.t.attempted += o.t.attempted
		e.t.failed += o.t.failed
		all.miss = append(all.miss, o.miss...)
		all.hit = append(all.hit, o.hit...)
		all.submit = append(all.submit, o.submit...)
		all.firstPoint = append(all.firstPoint, o.firstPoint...)
		all.gaps = append(all.gaps, o.gaps...)
		all.finish = append(all.finish, o.finish...)
		all.tracedMiss = append(all.tracedMiss, o.tracedMiss...)
		all.plainMiss = append(all.plainMiss, o.plainMiss...)
		all.specs = append(all.specs, o.specs...)
		all.mark(o.first, o.last)
	}
	counters, err := scrape(hc, ch.base)
	e.t.op("scraping /metrics", err)
	rss, err := peakRSSMB(strconv.Itoa(ch.cmd.Process.Pid))
	e.t.op("reading sweepd's peak RSS", err)
	ch.stop()
	stopped = true
	journal, err := dirBytes(dir, filepath.Join(dir, "cache"))
	e.t.op("sizing the journal", err)
	cache, err := dirBytes(filepath.Join(dir, "cache"), "")
	e.t.op("sizing the cache", err)

	wall := all.last.Sub(all.first).Seconds()
	replicas, packets := 0, 0.0
	for _, s := range all.specs {
		var doc struct {
			Points []pointDoc `json:"points"`
		}
		if s.doc == nil || json.Unmarshal(s.doc, &doc) != nil {
			continue
		}
		for _, p := range doc.Points {
			replicas += p.Replicas
			// Result documents carry no delivered count; offered packets
			// over the measured horizon stand in for it.
			packets += p.NodeRate * sweepdN * sweepdN * sweepdHorizon * float64(p.Replicas)
		}
		var pts struct {
			Points json.RawMessage `json:"points"`
		}
		_ = json.Unmarshal(s.doc, &pts) // decoded without error just above
		e.dig.bytes(pts.Points)
	}
	fmt.Printf("sweepd: %d fresh specs, %d resubmissions over %.3fs\n", len(all.miss), len(all.hit), wall)
	fmt.Println(describe("miss latency (POST to done)", all.miss))
	fmt.Println(describe("hit latency (POST to cached 200)", all.hit))
	e.e2e["setup_s"] = metricVal{median(setups), "s"}
	e.e2e["wall_s"] = metricVal{wall, "s"}
	e.e2e["packets_per_s"] = metricVal{packets / wall, "1/s"}
	e.e2e["replicas_used"] = metricVal{float64(replicas), "count"}
	e.e2e["peak_rss_mb"] = metricVal{rss, "MB"}
	e.e2e["jobs_per_s"] = metricVal{float64(len(all.miss)+len(all.hit)) / wall, "1/s"}
	e.e2e["miss_latency_p50_s"] = metricVal{finite(percentile(all.miss, 50)), "s"}
	e.e2e["miss_latency_p90_s"] = metricVal{finite(percentile(all.miss, 90)), "s"}
	e.e2e["hit_latency_p50_s"] = metricVal{finite(percentile(all.hit, 50)), "s"}
	e.e2e["hit_latency_p90_s"] = metricVal{finite(percentile(all.hit, 90)), "s"}

	l := e.layer
	l.set("serve.submit_s.p50", percentile(all.submit, 50))
	l.set("serve.submit_s.p90", percentile(all.submit, 90))
	l.set("serve.first_point_s.p50", percentile(all.firstPoint, 50))
	l.set("serve.point_gap_s.p50", percentile(all.gaps, 50))
	l.set("serve.finish_s.p50", percentile(all.finish, 50))
	l.set("serve.cache_hits", counters["sweepd_cache_hits_total"])
	l.set("serve.cache_misses", counters["sweepd_cache_misses_total"])
	l.set("serve.requeued", counters["sweepd_jobs_requeued_total"])
	l.set("serve.jobs_failed", counters["sweepd_jobs_failed_total"])
	l.set("serve.journal_bytes", float64(journal))
	l.set("serve.cache_bytes", float64(cache))
	if e.rec == nil {
		return
	}
	if len(all.tracedMiss) > 0 && len(all.plainMiss) > 0 {
		l.set("trace.overhead_frac", median(all.tracedMiss)/median(all.plainMiss)-1)
	}
	for layer, v := range layerSelf(e.rec.snapshot(), "job", "hit") {
		l.set("layer."+layer+".self_s", v/float64(len(all.miss)+len(all.hit)))
	}
	probeSweepd(e, all.specs, median(all.hit))
}

// probeSweepd re-binds the first specs in the client (the work every
// submission pays before the cache lookup) and re-runs them directly on
// the engines with one worker, as the durable executor does, which
// gives the service's overhead over the engine and checks that sweepd
// returned exactly the engines' results.
func probeSweepd(e *env, specs []*spec, hitP50 float64) {
	ctx := context.Background()
	var overhead []float64
	for _, s := range specs[:min(probeSpecs, len(specs))] {
		if s.doc == nil {
			continue
		}
		var req struct {
			Scenario json.RawMessage `json:"scenario"`
		}
		if !e.t.op("decoding "+s.name, json.Unmarshal(s.body(nil), &req)) {
			continue
		}
		sc, err := workload.ParseScenario(req.Scenario)
		if !e.t.op("parsing "+s.name, err) {
			continue
		}
		var b *workload.Bound
		sp := e.rec.begin("Scenario.Bind", "workload", 0, "")
		e.layer.add("workload.bind_s", timed(func() { b, err = sc.Bind() }))
		e.rec.end(sp)
		if !e.t.op("binding "+s.name, err) {
			continue
		}
		var got []float64
		dt := timed(func() { got, err = runDirect(ctx, s.engine, sc, b) })
		if !e.t.op("running "+s.name+" directly", err) {
			continue
		}
		overhead = append(overhead, s.latency-dt)
		var doc struct {
			Points []pointDoc `json:"points"`
		}
		if e.t.op("decoding the result of "+s.name, json.Unmarshal(s.doc, &doc)) {
			ok := len(doc.Points) == len(got)
			for i := range min(len(got), len(doc.Points)) {
				ok = ok && math.Float64bits(got[i]) == math.Float64bits(doc.Points[i].MeanDelay)
			}
			e.t.check(ok, "%s: sweepd's delays differ from a direct run", s.name)
		}
	}
	bind := median(e.layer["workload.bind_s"])
	e.layer.set("workload.bind_s", bind)
	e.layer.set("serve.overhead_s.p50", median(overhead))
	e.layer.set("serve.hit_bind_share", ratio(bind, hitP50))
}

// runDirect runs a bound spec point by point with one engine worker and
// the warm-start chain, as the durable executor does, and returns each
// point's mean delay.
func runDirect(ctx context.Context, engine string, sc workload.Scenario, b *workload.Bound) ([]float64, error) {
	var delays []float64
	if engine == "slotted" {
		cfgs, err := b.SlottedConfigs()
		if err != nil {
			return nil, err
		}
		opts := b.Scenario.SlottedSweepOpts(1)
		var prev []*stepsim.Snapshot
		for _, c := range cfgs {
			rs, snaps, err := stepsim.RunCellAdaptive(ctx, c, opts, prev, sc.WarmStart)
			if err != nil {
				return nil, err
			}
			prev = snaps
			delays = append(delays, rs.MeanDelay)
		}
		return delays, nil
	}
	opts := b.Scenario.SweepOpts(1)
	var prev []*sim.Snapshot
	for _, c := range b.Configs {
		rs, snaps, err := sim.RunCellAdaptive(ctx, c, opts, prev, sc.WarmStart)
		if err != nil {
			return nil, err
		}
		prev = snaps
		delays = append(delays, rs.MeanDelay)
	}
	return delays, nil
}
