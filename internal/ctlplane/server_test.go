package ctlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"opalperf/internal/fault"
	"opalperf/internal/harness"
	"opalperf/internal/telemetry"
)

func postJSON(t *testing.T, client *http.Client, url, tenant, body string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp, doc
}

func getJSON(t *testing.T, client *http.Client, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp, doc
}

// TestHTTPSubmitPollPredict walks the quickstart session: submit a run,
// poll it to completion, read the result, ask the model the same
// question, and check the telemetry plane carries the service.
func TestHTTPSubmitPollPredict(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 2, QueueCap: 16,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 16,
	}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, doc := postJSON(t, ts.Client(), ts.URL+"/v1/runs", "alice",
		`{"size":"small","scale":0.02,"servers":2,"steps":6,"update_every":2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %v", resp.StatusCode, doc)
	}
	jobID, _ := doc["job_id"].(string)
	if jobID == "" {
		t.Fatalf("no job_id in %v", doc)
	}
	var run map[string]any
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, run = getJSON(t, ts.Client(), ts.URL+"/v1/runs/"+jobID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", resp.StatusCode)
		}
		if run["state"] == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %v", run)
		}
		time.Sleep(2 * time.Millisecond)
	}
	result, _ := run["result"].(map[string]any)
	if result == nil {
		t.Fatalf("done without result: %v", run)
	}
	if en, _ := result["energies"].([]any); len(en) != 6 {
		t.Fatalf("energies = %v, want 6 entries", result["energies"])
	}
	// A duplicate submission coalesces onto the cached result.
	resp, doc = postJSON(t, ts.Client(), ts.URL+"/v1/runs", "bob",
		`{"size":"small","scale":0.02,"servers":2,"steps":6,"update_every":2}`)
	if resp.StatusCode != http.StatusAccepted || doc["coalesced"] != true {
		t.Fatalf("duplicate = %d %v, want coalesced", resp.StatusCode, doc)
	}

	resp, pred := getJSON(t, ts.Client(),
		ts.URL+"/v1/predict?platform=j90&size=small&servers=4&steps=100")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d: %v", resp.StatusCode, pred)
	}
	if total, _ := pred["total_seconds"].(float64); total <= 0 {
		t.Fatalf("predict total = %v, want > 0", pred["total_seconds"])
	}
	if su, _ := pred["speedup_vs_p1"].(float64); su <= 1 {
		t.Fatalf("4-server speedup = %v, want > 1", pred["speedup_vs_p1"])
	}

	// The telemetry plane rides on the same handler, and /healthz now
	// reports the control plane as a component.
	resp, health := getJSON(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	comps, _ := health["components"].(map[string]any)
	if _, ok := comps["ctlplane"]; !ok {
		t.Fatalf("healthz lacks ctlplane component: %v", health)
	}
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, mresp)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "opal_ctl_jobs_done_total") {
		t.Fatal("/metrics lacks control-plane instruments")
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestHTTPErrors pins the failure surface: malformed and invalid specs
// get 400s, unknown jobs 404, wrong methods 405.
func TestHTTPErrors(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 4,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 4,
	}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/runs", `{not json`, http.StatusBadRequest},
		{"POST", "/v1/runs", `{"steps":0}`, http.StatusBadRequest},
		{"POST", "/v1/runs", `{"steps":5,"platform":"pdp11"}`, http.StatusBadRequest},
		{"GET", "/v1/runs/job-999999", "", http.StatusNotFound},
		{"GET", "/v1/runs", "", http.StatusMethodNotAllowed},
		{"POST", "/v1/runs/job-000001", "", http.StatusMethodNotAllowed},
		{"GET", "/v1/predict?servers=0&steps=10", "", http.StatusBadRequest},
		{"GET", "/v1/predict?servers=4&steps=nope", "", http.StatusBadRequest},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestHTTPOverloadSheds drives the queue to capacity over HTTP and pins
// the overload contract: 503 + Retry-After, answered fast.
func TestHTTPOverloadSheds(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 2,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 64,
	}, func(p *pool, j *job, attempt int) (*JobResult, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-block
		return &JobResult{Steps: 1, Energies: []float64{1}}, nil
	})
	defer close(block)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(i int) (*http.Response, map[string]any) {
		return postJSON(t, ts.Client(), ts.URL+"/v1/runs", "a",
			fmt.Sprintf(`{"size":"small","scale":0.02,"servers":2,"steps":4,"seed":%d}`, i))
	}
	resp, doc := submit(0)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d %v", resp.StatusCode, doc)
	}
	<-started
	for i := 1; i <= 2; i++ {
		if resp, doc := submit(i); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d = %d %v", i, resp.StatusCode, doc)
		}
	}
	t0 := time.Now()
	resp, doc = submit(3)
	lat := time.Since(t0)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload = %d %v, want 503", resp.StatusCode, doc)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 must carry Retry-After")
	}
	if doc["error"] != "queue_full" {
		t.Fatalf("overload reason = %v, want queue_full", doc["error"])
	}
	if lat > 5*time.Millisecond {
		t.Fatalf("overload answer took %v, want < 5ms", lat)
	}

	// Rate-limit sheds map to 429 with Retry-After.
	s2 := newTestServer(t, Config{
		Workers: 1, QueueCap: 4,
		TenantRate: 0.001, TenantBurst: 1, TenantJobs: 64,
		PredictRate: 0.001, PredictBurst: 1,
	}, func(p *pool, j *job, attempt int) (*JobResult, error) {
		return &JobResult{Steps: 1, Energies: []float64{1}}, nil
	})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if resp, _ := postJSON(t, ts2.Client(), ts2.URL+"/v1/runs", "a",
		`{"size":"small","scale":0.02,"servers":2,"steps":4}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("burst submit = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts2.Client(), ts2.URL+"/v1/runs", "a",
		`{"size":"small","scale":0.02,"servers":2,"steps":4,"seed":1}`)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("rate shed = %d Retry-After=%q, want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// The hot path has its own bucket: the first predict passes, the
	// next sheds 429 without touching the queue.
	r1, err := ts2.Client().Get(ts2.URL + "/v1/predict?servers=2&steps=10")
	if err != nil {
		t.Fatal(err)
	}
	r1.Body.Close()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first predict = %d", r1.StatusCode)
	}
	r2, err := ts2.Client().Get(ts2.URL + "/v1/predict?servers=2&steps=10")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second predict = %d, want 429", r2.StatusCode)
	}
}

// TestPredictHotPathLatency pins the read-path budget: after warm-up,
// 10k sequential /predict requests with telemetry enabled keep p99 under
// 1ms — the calibrate-once/predict-many economics served live.  Under the
// race detector the percentiles are only logged: instrumented and sharing
// two cores with the other packages' tests, p99 lands on either side of
// the limit, and svc.predict_p99_ms in bench/ is the tracked number.
func TestPredictHotPathLatency(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 4,
		PredictRate: 1e9, PredictBurst: 1e9,
	}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	const n = 10000
	url := ts.URL + "/v1/predict?platform=j90&size=small&servers=8&steps=100"
	// Warm-up: build the memoized system and machine, open the
	// keep-alive connection.
	for i := 0; i < 50; i++ {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up predict = %d", resp.StatusCode)
		}
	}
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		resp.Body.Close()
		lats = append(lats, time.Since(t0))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50, p99 := lats[n/2], lats[n*99/100]
	t.Logf("/predict over %d sequential requests: p50=%v p99=%v max=%v", n, p50, p99, lats[n-1])
	if raceEnabled {
		t.Skip("race detector on: percentiles logged, 1ms limit not asserted")
	}
	if p99 > time.Millisecond {
		t.Fatalf("/predict p99 = %v, want < 1ms", p99)
	}
}

// A job's run reports under the job ID, not the daemon's: its run-level
// journal lines name the job, and a supervisor the job exhausts degrades
// the job's health only — the daemon's /healthz stays the control plane's.
func TestJobTelemetryCarriesJobID(t *testing.T) {
	j := telemetry.StartJournal(nil, 256)
	defer telemetry.StopJournal()
	s := New(Config{Workers: 1})
	// The first kill of rank 0 heals, the second finds the budget spent.
	s.pool.amend = func(spec *harness.RunSpec) {
		spec.Opts.Kills, spec.Opts.MaxRespawns = fault.KillSchedule{1: {0}, 2: {0}}.Func(), 1
	}
	s.Start()
	defer s.Drain()
	jobID, _, err := s.Submit("t", JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 4, SelfHeal: true})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, jobID)

	runs := map[string]string{} // event type -> run ID
	for _, line := range j.Flight().Events() {
		var ev struct{ Run, Type string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		runs[ev.Type] = ev.Run
	}
	for _, typ := range []string{"run_start", "respawn", "supervisor_healing", "supervisor_healthy", "supervisor_degraded", "run_end"} {
		if runs[typ] != jobID {
			t.Errorf("%s carries run %q, want the job's %q", typ, runs[typ], jobID)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"state":"idle"`) {
		t.Fatalf("/healthz after a degraded job = %d %s, want 200 and idle", rec.Code, rec.Body.String())
	}
}
