package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// smallSubmit is a fast three-point sweep on the slotted engine.
func smallSubmit() []byte {
	return []byte(`{
		"engine": "slotted",
		"scenario": {
			"name": "smoke",
			"topology": {"kind": "array", "n": 4},
			"pattern": {"kind": "uniform"},
			"loads": [0.3, 0.5, 0.6],
			"horizon": 400,
			"warmup": 100,
			"replicas": 2,
			"seed": 9
		}
	}`)
}

// longSubmit is a sweep big enough to still be running when the test
// cancels or crowds it (50M slots; cancellation aborts it in
// milliseconds).
func longSubmit(seed int) []byte {
	return fmt.Appendf(nil, `{
		"engine": "slotted",
		"scenario": {
			"name": "long",
			"topology": {"kind": "array", "n": 8},
			"pattern": {"kind": "uniform"},
			"loads": [0.9],
			"horizon": 50000000,
			"replicas": 1,
			"seed": %d
		}
	}`, seed)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Version == "" {
		cfg.Version = testVersion
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSweep(t *testing.T, ts *httptest.Server, body []byte) (int, SubmitResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp.StatusCode, sr, resp.Header
}

func getJob(t *testing.T, ts *httptest.Server, id string) jobDoc {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d jobDoc
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

func waitStatus(t *testing.T, ts *httptest.Server, id, want string) jobDoc {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		d := getJob(t, ts, id)
		if d.Status == want {
			return d
		}
		if d.Status == StatusFailed && want != StatusFailed {
			t.Fatalf("job %s failed: %s", id, d.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobDoc{}
}

// readSSE consumes the event stream until the server closes it, returning
// the ordered (type, data) frames.
func readSSE(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	var events []Event
	var cur Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Type != "" {
				events = append(events, cur)
				cur = Event{}
			}
		}
	}
	return events
}

// checkPoints asserts the stream carries every sweep point exactly once,
// in input order, followed by a single terminal frame.
func checkPoints(t *testing.T, events []Event, wantPoints int, terminal string) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	next := 0
	for _, ev := range events[:len(events)-1] {
		if ev.Type != "point" {
			t.Fatalf("mid-stream event type %q", ev.Type)
		}
		var pd PointDoc
		if err := json.Unmarshal(ev.Data, &pd); err != nil {
			t.Fatalf("bad point data %s: %v", ev.Data, err)
		}
		if pd.Index != next {
			t.Fatalf("point index %d, want %d (duplicate or gap)", pd.Index, next)
		}
		next++
	}
	if next != wantPoints {
		t.Fatalf("streamed %d points, want %d", next, wantPoints)
	}
	if last := events[len(events)-1]; last.Type != terminal {
		t.Fatalf("terminal event %q, want %q", last.Type, terminal)
	}
}

func scrapeMetric(t *testing.T, ts *httptest.Server, name string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return ""
}

// TestSubmitStreamResubmit is the end-to-end contract: submit, stream
// every point exactly once, then resubmit the identical spec and get the
// byte-identical result document from the cache with cached:true
// provenance and the hit counter incremented.
func TestSubmitStreamResubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	code, sub, _ := postSweep(t, ts, smallSubmit())
	if code != http.StatusAccepted || sub.Cached || sub.ID == "" {
		t.Fatalf("first submit: code=%d resp=%+v", code, sub)
	}
	events := readSSE(t, ts, sub.ID)
	checkPoints(t, events, 3, "done")
	doc := waitStatus(t, ts, sub.ID, StatusDone)
	if len(doc.Result) == 0 {
		t.Fatal("done job has no result document")
	}
	// A late subscriber replays the whole stream: same frames again.
	replay := readSSE(t, ts, sub.ID)
	checkPoints(t, replay, 3, "done")

	code, re, _ := postSweep(t, ts, smallSubmit())
	if code != http.StatusOK {
		t.Fatalf("resubmit: code=%d", code)
	}
	if !re.Cached {
		t.Fatal("resubmit not served from cache")
	}
	if re.Key != sub.Key {
		t.Fatalf("resubmit key %s != original %s", re.Key, sub.Key)
	}
	if !bytes.Equal(re.Result, doc.Result) {
		t.Fatalf("cached result not byte-identical:\n first: %s\ncached: %s", doc.Result, re.Result)
	}
	var rd ResultDoc
	if err := json.Unmarshal(re.Result, &rd); err != nil {
		t.Fatal(err)
	}
	if rd.Version != testVersion || rd.Engine != "slotted" || len(rd.Points) != 3 {
		t.Fatalf("result doc provenance: %+v", rd)
	}
	if got := scrapeMetric(t, ts, "sweepd_cache_hits_total"); got != "1" {
		t.Fatalf("cache hits = %s, want 1", got)
	}
	if got := scrapeMetric(t, ts, "sweepd_jobs_completed_total"); got != "1" {
		t.Fatalf("jobs completed = %s, want 1", got)
	}
}

// TestResubmitDifferentSpelling: a semantically identical spec spelled
// with defaults materialized must hit the same cache entry.
func TestResubmitDifferentSpelling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, sub, _ := postSweep(t, ts, smallSubmit())
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}
	waitStatus(t, ts, sub.ID, StatusDone)
	respelled := []byte(`{
		"engine": "slotted",
		"scenario": {
			"seed": 9, "replicas": 2, "warmup": 100, "horizon": 400,
			"loads": [0.3, 0.5, 0.6],
			"arrivals": {"kind": "poisson"},
			"pattern": {"kind": "uniform"},
			"topology": {"n": 4, "kind": "array"},
			"description": "same campaign, different spelling",
			"shards": 2,
			"name": "smoke"
		}
	}`)
	code, re, _ := postSweep(t, ts, respelled)
	if code != http.StatusOK || !re.Cached {
		t.Fatalf("respelled submit missed the cache: code=%d cached=%v", code, re.Cached)
	}
}

func TestBackpressure(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 1, Workers: 1})
	// First long job occupies the worker; second fills the queue; third
	// must shed with 429 + Retry-After.
	code, first, _ := postSweep(t, ts, longSubmit(1))
	if code != http.StatusAccepted {
		t.Fatalf("first: code=%d", code)
	}
	waitStatus(t, ts, first.ID, StatusRunning)
	code, second, _ := postSweep(t, ts, longSubmit(2))
	if code != http.StatusAccepted {
		t.Fatalf("second: code=%d", code)
	}
	code, _, hdr := postSweep(t, ts, longSubmit(3))
	if code != http.StatusTooManyRequests {
		t.Fatalf("third: code=%d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Canceling the queued job frees its slot without running it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+second.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ts, second.ID, StatusCanceled)
}

// TestDeleteCancelsRunning is the -race cancellation proof at the service
// layer: DELETE on a running job must stop the engine pools (50M-slot run
// aborts in well under the watchdog) and surface a terminal error frame
// to subscribers.
func TestDeleteCancelsRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, sub, _ := postSweep(t, ts, longSubmit(4))
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}
	waitStatus(t, ts, sub.ID, StatusRunning)
	sseDone := make(chan []Event, 1)
	go func() { sseDone <- readSSE(t, ts, sub.ID) }()
	time.Sleep(20 * time.Millisecond)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	d := waitStatus(t, ts, sub.ID, StatusCanceled)
	if d.Error == "" {
		t.Fatal("canceled job carries no cause")
	}
	select {
	case events := <-sseDone:
		if len(events) == 0 || events[len(events)-1].Type != "error" {
			t.Fatalf("canceled stream events: %+v", events)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate after cancel")
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string]string{
		"not json":     `{"scenario": nope}`,
		"no scenario":  `{"engine": "event"}`,
		"bad load":     `{"scenario": {"name":"x","topology":{"kind":"array","n":4},"pattern":{"kind":"uniform"},"loads":[1.5]}}`,
		"bad topology": `{"scenario": {"name":"x","topology":{"kind":"mesh9"},"pattern":{"kind":"uniform"},"loads":[0.5]}}`,
		"bad engine":   `{"engine":"quantum","scenario": {"name":"x","topology":{"kind":"array","n":4},"pattern":{"kind":"uniform"},"loads":[0.5]}}`,
		"slotted bursty": `{"engine":"slotted","scenario": {"name":"x","topology":{"kind":"array","n":4},
			"pattern":{"kind":"uniform"},"arrivals":{"kind":"bursty"},"loads":[0.5]}}`,
	}
	for label, body := range cases {
		code, _, _ := postSweep(t, ts, []byte(body))
		if code != http.StatusBadRequest {
			t.Errorf("%s: code=%d, want 400", label, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: code=%d, want 404", resp.StatusCode)
	}
}

// TestSlottedSubmitGate pins the slotted submit check, which reuses the
// submit's single Bind: a bursty spec on the slotted engine gets a 400
// carrying exactly SlottedConfigs' message (the event engine accepts the
// same spec), and a slotted spec resubmitted after it finishes returns the
// byte-identical cached document every time.
func TestSlottedSubmitGate(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	bursty := `{"name":"x","topology":{"kind":"array","n":4},"pattern":{"kind":"uniform"},
		"arrivals":{"kind":"bursty"},"loads":[0.5],"horizon":400,"replicas":1}`
	_, b, err := workload.ParseBind([]byte(bursty))
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := b.SlottedConfigs()
	if wantErr == nil {
		t.Fatal("bursty scenario lowered onto the slotted engine")
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"engine":"slotted","scenario":`+bursty+`}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || body.Error != wantErr.Error() {
		t.Fatalf("slotted bursty submit: code=%d error=%q, want 400 %q", resp.StatusCode, body.Error, wantErr)
	}
	if code, _, _ := postSweep(t, ts, []byte(`{"engine":"event","scenario":`+bursty+`}`)); code != http.StatusAccepted {
		t.Fatalf("event bursty submit: code=%d, want 202", code)
	}

	code, sub, _ := postSweep(t, ts, smallSubmit())
	if code != http.StatusAccepted {
		t.Fatalf("slotted submit: code=%d", code)
	}
	doc := waitStatus(t, ts, sub.ID, StatusDone)
	for i := range 2 {
		code, re, _ := postSweep(t, ts, smallSubmit())
		if code != http.StatusOK || !re.Cached || re.Key != sub.Key {
			t.Fatalf("resubmit %d: code=%d cached=%v key=%s, want 200 cached %s", i, code, re.Cached, re.Key, sub.Key)
		}
		if !bytes.Equal(re.Result, doc.Result) {
			t.Fatalf("resubmit %d: cached result not byte-identical:\n first: %s\ncached: %s", i, doc.Result, re.Result)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Version != testVersion {
		t.Fatalf("healthz: code=%d body=%+v", resp.StatusCode, h)
	}
}

// TestCachePersistsAcrossServers: a new server over the same cache
// directory (same pinned version) serves the old result without rerunning.
func TestCachePersistsAcrossServers(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{CacheDir: dir, Version: testVersion})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	code, sub, _ := postSweep(t, ts1, smallSubmit())
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}
	doc := waitStatus(t, ts1, sub.ID, StatusDone)
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, Config{CacheDir: dir})
	code, re, _ := postSweep(t, ts2, smallSubmit())
	if code != http.StatusOK || !re.Cached {
		t.Fatalf("restarted server missed disk cache: code=%d cached=%v", code, re.Cached)
	}
	if !bytes.Equal(re.Result, doc.Result) {
		t.Fatal("disk-cached result not byte-identical across server restarts")
	}
}
