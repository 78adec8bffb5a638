package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
)

// opTimeout fails an op that has not answered; the slowest healthy op is
// two orders of magnitude below it.
const opTimeout = 10 * time.Second

// pollEvery is the status poll period of svc-runs, a busy sweep script's.
const pollEvery = time.Millisecond

// daemon is one spawned opald with the single HTTP connection the
// workloads share.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	dir     string // journal and archive live here; removed on stop
	journal string
	arch    string
	tail    chan string // stdout after the ready line, closed pipe
	http    *http.Client
}

// children tracks the processes the benchmark started so a signal to it
// never leaves one behind.
var children = struct {
	sync.Mutex
	live map[*exec.Cmd]bool
}{live: map[*exec.Cmd]bool{}}

func track(cmd *exec.Cmd) {
	children.Lock()
	children.live[cmd] = true
	children.Unlock()
}

func untrack(cmd *exec.Cmd) {
	children.Lock()
	delete(children.live, cmd)
	children.Unlock()
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for cmd := range children.live {
		cmd.Process.Kill()
	}
}

// buildOpald compiles the daemon under test into bench/bin.  It runs
// before any workload starts and is not part of setup_s.
func buildOpald(root string) error {
	cmd := exec.Command("go", "build", "-o", filepath.Join("bench", "bin", "opald"), "./cmd/opald")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/opald: %w", err)
	}
	return nil
}

// startDaemon boots opald -workers 1 on a free port with a fresh journal
// and archive, and returns once it has printed its ready line.
func startDaemon(root string, extra ...string) (*daemon, error) {
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, "bench", "out"), "opald-")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		dir:     dir,
		journal: filepath.Join(dir, "journal.jsonl"),
		arch:    filepath.Join(dir, "archive"),
		tail:    make(chan string, 1),
		http: &http.Client{
			Timeout: opTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
	args := append([]string{
		"-addr", "127.0.0.1:0", "-workers", "1",
		"-journal", d.journal, "-archive", d.arch,
		"-tenant-rate", "1e6", "-tenant-burst", "1e6",
	}, extra...)
	d.cmd = exec.Command(filepath.Join(root, "bench", "bin", "opald"), args...)
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.cmd.Stderr = d.cmd.Stdout
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	track(d.cmd)

	sc := bufio.NewScanner(stdout)
	var seen []string
	for sc.Scan() {
		line := sc.Text()
		seen = append(seen, line)
		if i := strings.Index(line, "on http://"); i >= 0 {
			d.base = "http://" + strings.TrimSpace(line[i+len("on http://"):])
			break
		}
	}
	if d.base == "" {
		d.kill()
		return nil, fmt.Errorf("opald never announced its address:\n%s", strings.Join(seen, "\n"))
	}
	// Keep draining stdout so the daemon never blocks on a full pipe.
	go func() {
		var lines []string
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		d.tail <- strings.Join(lines, "\n")
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.forget()
}

func (d *daemon) forget() {
	untrack(d.cmd)
	os.RemoveAll(d.dir)
}

// stop asks for the graceful drain and requires exit 0.
func (d *daemon) stop() error {
	defer d.forget()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	// Read stdout to EOF before reaping: Wait closes the pipe.
	var out string
	select {
	case out = <-d.tail:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		d.cmd.Wait()
		return fmt.Errorf("opald did not close stdout within 30s of SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("opald exited non-zero after SIGTERM: %w\n%s", err, out)
	}
	return nil
}

// do sends one request on the shared connection and returns the whole
// body, so the connection is reused by the next request.
func (d *daemon) do(method, path string, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// call is do plus the status check and JSON decode.
func (d *daemon) call(method, path, body string, want int, into any) error {
	code, data, err := d.do(method, path, body)
	if err != nil {
		return err
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, code, want, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// scrape reads the daemon's /metrics into series → value, plus the sizes
// of its journal and archive under the pseudo-series bench_journal_bytes
// and bench_archive_bytes.
func (d *daemon) scrape() (map[string]float64, error) {
	code, data, err := d.do("GET", "/metrics", "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	m, err := parseMetrics(string(data))
	if err != nil {
		return nil, err
	}
	if st, err := os.Stat(d.journal); err == nil {
		m["bench_journal_bytes"] = float64(st.Size())
	}
	filepath.WalkDir(d.arch, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				m["bench_archive_bytes"] += float64(info.Size())
			}
		}
		return nil
	})
	return m, nil
}

// parseMetrics parses the Prometheus text exposition: one "series value"
// per line, the series with its label set verbatim.  Comment lines are
// skipped.
func parseMetrics(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// A label value may contain spaces; the sample value never does.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, nil
}

// sumSeries adds every series called name, whatever its labels.
func sumSeries(m map[string]float64, name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// svcBase is what the two svc-* workloads share: the daemon and the
// scrape taken when a traced window opens.
type svcBase struct {
	root    string
	d       *daemon
	n       int // ops issued so far, warm-up included
	scrape0 map[string]float64
}

func (b *svcBase) pid() int { return b.d.pid() }

func (b *svcBase) beginTrace() (err error) {
	b.scrape0, err = b.d.scrape()
	return err
}

func (b *svcBase) teardown() error { return b.d.stop() }

// runsSteps, runsServers: the svc-runs job is small enough that the
// service around it (admission, queue, archive fsync, journal) is a
// visible share of the op, large enough to be a real run.
const (
	runsSteps   = 120
	runsServers = 4
	runsScale   = 0.05
	runsWarmup  = 20
)

// runsSpec is the in-process equivalent of the svc-runs job, for the
// ladder and the per-op counts: what the daemon's worker hands to
// harness.Run for one submission.
func runsSpec(seed int64) simSpec {
	return simSpec{
		Platform: platform.J90(),
		Sys:      runsSystem(),
		Opts: md.Options{
			Cutoff:      10,
			UpdateEvery: 2,
			Seed:        seed,
			Accounting:  true,
			Minimize:    true,
		},
		Servers: runsServers,
		Steps:   runsSteps,
	}
}

var runsSystem = sync.OnceValue(func() *molecule.System { return harness.Sizes(runsScale)["small"] })

func (b *svcBase) ladderSpec() simSpec { return runsSpec(1) }

// svcRuns is the write path: submit a never-seen spec, poll it to done,
// read the result, then submit it again and require the deduplicated
// answer.
type svcRuns struct {
	svcBase
	seedBase int64
	lateness []float64 // overshoot of each 1 ms poll sleep, µs
}

func (w *svcRuns) setup(seed int64) error {
	d, err := startDaemon(w.root)
	if err != nil {
		return err
	}
	w.d, w.n, w.lateness = d, 0, nil
	// Job seeds count up from a base drawn from the workload seed, so no
	// spec repeats within a run and two runs of one seed submit the same
	// specs.
	w.seedBase = rand.New(rand.NewSource(seed)).Int63n(1 << 40)
	for i := 0; i < runsWarmup; i++ {
		if err := w.op(nil); err != nil {
			d.kill()
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

type acceptedDoc struct {
	JobID     string `json:"job_id"`
	Coalesced bool   `json:"coalesced"`
}

type runDoc struct {
	State       string `json:"state"`
	Completions int    `json:"completions"`
	Error       string `json:"error"`
	Result      *struct {
		Energies json.RawMessage `json:"energies"`
	} `json:"result"`
}

func (w *svcRuns) op(tr *tracer) error {
	i := w.n
	w.n++
	deadline := time.Now().Add(opTimeout)
	body := fmt.Sprintf(`{"size":"small","scale":%g,"servers":%d,"steps":%d,"update_every":2,"cutoff":10,"seed":%d}`,
		runsScale, runsServers, runsSteps, w.seedBase+int64(i))
	root := tr.begin("op", i, -1)
	defer tr.end(root)

	id := tr.begin("submit", i, root)
	var acc acceptedDoc
	err := w.d.call("POST", "/v1/runs", body, http.StatusAccepted, &acc)
	tr.end(id)
	if err != nil {
		return err
	}
	if acc.Coalesced {
		return fmt.Errorf("job %s: a never-seen spec answered coalesced", acc.JobID)
	}

	id = tr.begin("wait", i, root)
	err = w.awaitDone(acc.JobID, deadline, tr, i, id)
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("fetch", i, root)
	var first runDoc
	err = w.d.call("GET", "/v1/runs/"+acc.JobID, "", http.StatusOK, &first)
	tr.end(id)
	if err != nil {
		return err
	}
	if first.Result == nil || first.Completions != 1 {
		return fmt.Errorf("job %s: done with completions %d, result %v", acc.JobID, first.Completions, first.Result != nil)
	}
	var energies []float64
	if err := json.Unmarshal(first.Result.Energies, &energies); err != nil || len(energies) != runsSteps {
		return fmt.Errorf("job %s: %d energies, want %d (%v)", acc.JobID, len(energies), runsSteps, err)
	}

	id = tr.begin("dup", i, root)
	defer tr.end(id)
	var dup acceptedDoc
	if err := w.d.call("POST", "/v1/runs", body, http.StatusAccepted, &dup); err != nil {
		return err
	}
	if !dup.Coalesced {
		return fmt.Errorf("job %s: duplicate of %s was not coalesced", dup.JobID, acc.JobID)
	}
	var second runDoc
	if err := w.d.call("GET", "/v1/runs/"+dup.JobID, "", http.StatusOK, &second); err != nil {
		return err
	}
	if second.State != "done" || second.Result == nil || second.Completions != 1 ||
		!bytes.Equal(second.Result.Energies, first.Result.Energies) {
		return fmt.Errorf("job %s: duplicate of %s differs: state %q completions %d", dup.JobID, acc.JobID, second.State, second.Completions)
	}
	return nil
}

// awaitDone polls the job every pollEvery until it is done.
func (w *svcRuns) awaitDone(jobID string, deadline time.Time, tr *tracer, op, parent int) error {
	for {
		poll := tr.begin("poll", op, parent)
		var doc runDoc
		err := w.d.call("GET", "/v1/runs/"+jobID, "", http.StatusOK, &doc)
		tr.end(poll)
		if err != nil {
			return err
		}
		switch doc.State {
		case "done":
			return nil
		case "queued", "running":
		default:
			return fmt.Errorf("job %s: state %q: %s", jobID, doc.State, doc.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s: still %q after %s", jobID, doc.State, opTimeout)
		}
		t := time.Now()
		time.Sleep(pollEvery)
		w.lateness = append(w.lateness, float64(time.Since(t)-pollEvery)/1e3)
	}
}

// scrapeLayers folds the difference of two scrapes over ops ops and secs
// seconds into the scraped ctlplane/opald metrics.
func scrapeLayers(s0, s1 map[string]float64, ops int, secs float64, out map[string]float64) {
	delta := func(name string) float64 { return sumSeries(s1, name) - sumSeries(s0, name) }
	mean := func(hist string) float64 {
		if n := delta(hist + "_count"); n > 0 {
			return delta(hist+"_sum") / n
		}
		return 0
	}
	out["ctlplane.queue_wait_ms_mean"] = mean("opal_ctl_queue_wait_seconds") * 1e3
	out["ctlplane.job_ms_mean"] = mean("opal_ctl_job_seconds") * 1e3
	out["ctlplane.predict_server_us_mean"] = mean("opal_ctl_predict_seconds") * 1e6
	acc, coal := delta("opal_ctl_jobs_accepted_total"), delta("opal_ctl_jobs_coalesced_total")
	if acc+coal > 0 {
		out["ctlplane.coalesced_share"] = coal / (acc + coal)
	}
	if ops > 0 {
		out["ctlplane.retries_per_op"] = delta("opal_ctl_job_retries_total") / float64(ops)
		out["ctlplane.shed_per_op"] = delta("opal_ctl_shed_total") / float64(ops)
		out["telemetry.journal_bytes_per_op"] = delta("bench_journal_bytes") / float64(ops)
		out["archive.bytes_per_op"] = delta("bench_archive_bytes") / float64(ops)
	}
	out["opald.gc_pause_ms_per_s"] = delta("opal_go_gc_pause_seconds_total") * 1e3 / secs
	out["opald.heap_mb"] = sumSeries(s1, "opal_go_heap_bytes") / (1 << 20)
}

// scraped closes the traced window's scrape interval.
func (b *svcBase) scraped(win *window, out map[string]float64) error {
	s1, err := b.d.scrape()
	if err != nil {
		return err
	}
	lastEnd := win.ops[len(win.ops)-1].end
	scrapeLayers(b.scrape0, s1, win.attempted(), lastEnd.Seconds(), out)
	return nil
}

func (w *svcRuns) layers(win *window, tr *tracer, budget time.Duration, out map[string]float64) error {
	if err := w.scraped(win, out); err != nil {
		return err
	}
	for _, name := range []string{"submit", "wait", "fetch", "dup"} {
		out["svc."+name+"_ms_p50"] = median(tr.durationsMS(name))
	}
	if n := tr.count("op"); n > 0 {
		out["svc.polls_per_op"] = float64(tr.count("poll")) / float64(n)
	}
	out["svc.poll_lateness_us"] = median(w.lateness)

	// What the daemon's worker asks of the simulator for one op.
	specs := make([]simSpec, cycle)
	for k := range specs {
		specs[k] = runsSpec(w.seedBase + int64(k))
	}
	if err := simLayers(specs, budget, out); err != nil {
		return err
	}
	out["md.host_us_per_step"] = out["ctlplane.job_ms_mean"] * 1e3 / runsSteps
	return nil
}

// svcPredict is the hot read path: warm /v1/predict keys in a seeded
// order.
type svcPredict struct {
	svcBase
	paths []string
	first []float64 // total_seconds of each key's first answer
}

func predictPaths(seed int64) []string {
	var paths []string
	for _, pl := range platform.Keys() {
		for _, size := range []string{"small", "medium", "large"} {
			for p := 1; p <= 8; p++ {
				paths = append(paths, fmt.Sprintf("/v1/predict?platform=%s&size=%s&servers=%d&steps=100", pl, size, p))
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	return paths
}

func (w *svcPredict) setup(seed int64) error {
	d, err := startDaemon(w.root, "-predict-rate", "1e6", "-predict-burst", "1e6")
	if err != nil {
		return err
	}
	w.d, w.n = d, 0
	w.paths = predictPaths(seed)
	w.first = make([]float64, len(w.paths))
	// Warm-up: the first pass generates the systems and machine tables
	// and records each key's reference answer; the second runs warm.
	for pass := 0; pass < 2; pass++ {
		for k := range w.paths {
			total, err := w.predict(k)
			if err != nil {
				d.kill()
				return fmt.Errorf("warm-up: %w", err)
			}
			if pass == 0 {
				w.first[k] = total
			}
		}
	}
	return nil
}

func (w *svcPredict) predict(k int) (float64, error) {
	var doc struct {
		Total float64 `json:"total_seconds"`
	}
	err := w.d.call("GET", w.paths[k], "", http.StatusOK, &doc)
	return doc.Total, err
}

func (w *svcPredict) op(tr *tracer) error {
	i := w.n
	w.n++
	k := i % len(w.paths)
	id := tr.begin("predict", i, -1)
	total, err := w.predict(k)
	tr.end(id)
	if err != nil {
		return err
	}
	if total != w.first[k] || total <= 0 {
		return fmt.Errorf("%s: total_seconds %v, first answer was %v", w.paths[k], total, w.first[k])
	}
	return nil
}

func (w *svcPredict) layers(win *window, tr *tracer, budget time.Duration, out map[string]float64) error {
	if err := w.scraped(win, out); err != nil {
		return err
	}
	lat := win.latenciesMS()
	out["svc.http_overhead_us"] = median(lat)*1e3 - out["ctlplane.predict_server_us_mean"]
	out["svc.predict_p99_ms"] = archive.Percentile(lat, 99)
	return nil
}
