package telemetry

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	withEnabled(t)
	RPCLatency.With("nbint").Observe(0.01)
	srv := httptest.NewServer(Plane{}.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE opal_sciddle_call_seconds histogram",
		`opal_sciddle_call_seconds_bucket{method="nbint",le=`,
		"# TYPE opal_supervisor_state gauge",
		"opal_pvm_messages_sent_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHealthzReflectsSupervisorState(t *testing.T) {
	run := &Scope{ID: "r"}
	srv := httptest.NewServer(Plane{Run: run}.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("idle /healthz status %d", code)
	}
	var h struct {
		State string `json:"state"`
		OK    bool   `json:"ok"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if h.State != "idle" || !h.OK {
		t.Fatalf("idle health = %+v", h)
	}

	run.SetHealth("degraded", false)
	code, body = get(t, srv, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz status %d, want 503", code)
	}
	if !strings.Contains(body, `"state":"degraded"`) {
		t.Fatalf("degraded body %q", body)
	}

	// A plane without the run reports none of its health.
	other := httptest.NewServer(Plane{}.Handler())
	defer other.Close()
	if code, body := get(t, other, "/healthz"); code != http.StatusOK || !strings.Contains(body, `"state":"idle"`) {
		t.Fatalf("plane without a run: /healthz status %d body %q", code, body)
	}
}

// TestHealthzFoldsInComponents pins the components' half of /healthz: each
// is reported by name, in name order, and one that is not ok turns the
// answer into a 503.
func TestHealthzFoldsInComponents(t *testing.T) {
	queueOK := true
	srv := httptest.NewServer(Plane{Components: map[string]func() (string, bool){
		"queue": func() (string, bool) { return "depth 1", queueOK },
		"disk":  func() (string, bool) { return "ok", true },
	}}.Handler())
	defer srv.Close()
	code, body := get(t, srv, "/healthz")
	want := `,"components":{"disk":{"detail":"ok","ok":true},"queue":{"detail":"depth 1","ok":true}}}`
	if code != http.StatusOK || !strings.HasSuffix(strings.TrimSpace(body), want) {
		t.Fatalf("/healthz status %d body %q, want 200 ending %s", code, body, want)
	}
	queueOK = false
	if code, body := get(t, srv, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, `"ok":false`) {
		t.Fatalf("unhealthy component: /healthz status %d body %q, want 503", code, body)
	}
}

// TestPlaneServesItsEndpoints: a plane serves the endpoints it was built
// with, and only those.
func TestPlaneServesItsEndpoints(t *testing.T) {
	text := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "modelz") })
	srv := httptest.NewServer(Plane{Endpoints: map[string]http.Handler{"/modelz": text}}.Handler())
	defer srv.Close()
	if code, body := get(t, srv, "/modelz"); code != http.StatusOK || body != "modelz" {
		t.Fatalf("/modelz: status %d body %q", code, body)
	}
	bare := httptest.NewServer(Plane{}.Handler())
	defer bare.Close()
	if code, _ := get(t, bare, "/modelz"); code != http.StatusNotFound {
		t.Fatalf("a plane without /modelz served it with status %d", code)
	}
}

func TestPprofMounted(t *testing.T) {
	srv := httptest.NewServer(Plane{}.Handler())
	defer srv.Close()
	code, body := get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d body %.80s", code, body)
	}
}

func TestServe(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0", Plane{}.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unexpected status %d", resp.StatusCode)
	}
}

// TestServeCutsSlowLoris is the slow-loris regression test for the
// hardened server: a client that dribbles an incomplete request header
// forever is cut off at readHeaderTimeout instead of pinning a
// connection (and, pre-hardening, a goroutine) for the daemon's
// lifetime.
func TestServeCutsSlowLoris(t *testing.T) {
	prev := readHeaderTimeout
	readHeaderTimeout = 150 * time.Millisecond
	defer func() { readHeaderTimeout = prev }()

	addr, stop, err := Serve("127.0.0.1:0", Plane{}.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// An eternally unfinished request line: no terminating CRLFCRLF.
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\nX-Drip: ")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered an unfinished request header")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server still holding the slow-loris connection after %v", time.Since(start))
	}
	// The cut must come from readHeaderTimeout, not some longer budget.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("slow-loris connection lived %v, want ~readHeaderTimeout", elapsed)
	}

	// The server is still healthy for well-behaved clients afterwards.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-loris request: status %d", resp.StatusCode)
	}
}

// TestServeGracefulStop pins the shutdown half of the hardening: stop()
// lets an in-flight response finish instead of resetting it.
func TestServeGracefulStop(t *testing.T) {
	release := make(chan struct{})
	inFlight := make(chan struct{})
	addr, stop, err := Serve("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		<-release
		w.Write([]byte("done"))
	}))
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		body string
		err  error
	}
	resC := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			resC <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		resC <- result{body: string(b), err: err}
	}()
	<-inFlight
	stopped := make(chan struct{})
	go func() { stop(); close(stopped) }()
	// Shutdown is in progress; the in-flight handler may still answer.
	close(release)
	res := <-resC
	if res.err != nil || res.body != "done" {
		t.Fatalf("in-flight request during graceful stop: body=%q err=%v", res.body, res.err)
	}
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("stop() hung")
	}
}
