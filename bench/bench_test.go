package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"opalperf/internal/archive"
)

// tile fills a window with back-to-back ops of the given durations.
func tile(dur time.Duration, ops ...time.Duration) *window {
	win := &window{dur: dur}
	var t time.Duration
	for _, d := range ops {
		win.ops = append(win.ops, opSample{start: t, end: t + d})
		t += d
	}
	return win
}

func repeat(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestSliceMedian(t *testing.T) {
	ms := time.Millisecond
	// One op stalls for a whole slice: nine slices run at the steady
	// rate, one at a fraction of it, and the median ignores the stall.
	stalled := append(repeat(250*ms, 8), 1000*ms)
	stalled = append(stalled, repeat(250*ms, 28)...)
	cases := []struct {
		name string
		win  *window
		want float64
	}{
		{"ops aligned with slices", tile(10*time.Second, repeat(500*ms, 20)...), 2},
		{"ops straddling slices get fractional credit", tile(10*time.Second, repeat(400*ms, 25)...), 2.5},
		{"one slow op per slice", tile(10*time.Second, repeat(1000*ms, 10)...), 1},
		{"a neighbour's burst stalls one op", tile(10*time.Second, stalled...), 4},
		{"the op running past the window counts in part", tile(time.Second, 950*ms, 100*ms), 1 / 0.95},
	}
	for _, c := range cases {
		rates := c.win.sliceRates()
		if len(rates) != slices {
			t.Fatalf("%s: %d slices, want %d", c.name, len(rates), slices)
		}
		if got := median(rates); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: median slice rate %v, want %v (rates %v)", c.name, got, c.want, rates)
		}
	}
	// Failed ops complete nothing.
	win := tile(time.Second, repeat(100*ms, 10)...)
	for i := range win.ops {
		win.ops[i].failed = i%2 == 0
	}
	if got := median(win.sliceRates()); got != 0 {
		// Every other slice holds only a failed op; the lower median is 0.
		t.Errorf("failed ops were credited: median rate %v", got)
	}
	if win.failed() != 5 || win.attempted() != 10 || len(win.latenciesMS()) != 5 {
		t.Errorf("failed %d attempted %d latencies %d, want 5 10 5", win.failed(), win.attempted(), len(win.latenciesMS()))
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{seq(100), 50, 50},
		{seq(100), 95, 95},
		{seq(4), 50, 2},   // nearest rank takes the lower middle
		{seq(5), 50, 3},   //
		{seq(10), 95, 10}, // ceil(9.5) = 10
		{seq(1), 95, 1},
		{seq(340), 95, 323}, // 17 samples beyond
	}
	// The benchmark has no percentile code of its own: every median and
	// percentile it prints is archive.Percentile's nearest rank.
	for _, c := range cases {
		got := archive.Percentile(c.xs, c.p)
		if c.p == 50 {
			got = median(c.xs)
		}
		if got != c.want {
			t.Errorf("p%v of 1..%d = %v, want %v", c.p, len(c.xs), got, c.want)
		}
	}
	win := &window{dur: time.Second}
	for _, x := range seq(5) {
		win.ops = append(win.ops, opSample{end: time.Duration(x * float64(time.Millisecond))})
	}
	if m := endToEndOf(win, []float64{3, 1, 2})["op_p50_ms"]; m.Value != 3 || m.Samples != 5 {
		t.Errorf("op_p50_ms of 1..5 ms = %+v, want 3 over 5 samples", m)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP opal_ctl_queue_wait_seconds Host wall time a job spent queued.
# TYPE opal_ctl_queue_wait_seconds histogram
opal_ctl_queue_wait_seconds_bucket{tenant="default",le="0.001"} 7
opal_ctl_queue_wait_seconds_sum{tenant="default"} 0.0125
opal_ctl_queue_wait_seconds_count{tenant="default"} 10
opal_ctl_queue_wait_seconds_sum{tenant="team a"} 0.5
opal_ctl_queue_wait_seconds_count{tenant="team a"} 2

opal_ctl_shed_total{reason="queue_full"} 3
opal_ctl_shed_total{reason="rate_limited"} 4
opal_ctl_jobs_accepted_total 12
opal_ctl_jobs_accepted_total_extra 99
opal_go_heap_bytes 4.194304e+06
`
	m, err := parseMetrics(text)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		want float64
	}{
		{"opal_ctl_queue_wait_seconds_sum", 0.5125},
		{"opal_ctl_queue_wait_seconds_count", 12},
		{"opal_ctl_shed_total", 7},
		{"opal_ctl_jobs_accepted_total", 12}, // not its _extra namesake
		{"opal_go_heap_bytes", 4194304},
		{"opal_absent_total", 0},
	}
	for _, c := range cases {
		if got := sumSeries(m, c.name); got != c.want {
			t.Errorf("sumSeries(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	if got := m[`opal_ctl_queue_wait_seconds_sum{tenant="team a"}`]; got != 0.5 {
		t.Errorf("label value with a space parsed as %v, want 0.5", got)
	}
	for _, bad := range []string{"no_value", "name not-a-number"} {
		if _, err := parseMetrics(bad); err == nil {
			t.Errorf("parseMetrics(%q) accepted a malformed line", bad)
		}
	}

	out := map[string]float64{}
	s0 := map[string]float64{"opal_ctl_job_seconds_sum": 1, "opal_ctl_job_seconds_count": 10,
		"opal_ctl_jobs_accepted_total": 5, "opal_ctl_jobs_coalesced_total": 5}
	s1 := map[string]float64{"opal_ctl_job_seconds_sum": 1.5, "opal_ctl_job_seconds_count": 60,
		"opal_ctl_jobs_accepted_total": 55, "opal_ctl_jobs_coalesced_total": 55,
		`opal_ctl_shed_total{reason="queue_full"}`: 5}
	scrapeLayers(s0, s1, 50, 2, out)
	if out["ctlplane.job_ms_mean"] != 10 || out["ctlplane.coalesced_share"] != 0.5 || out["ctlplane.shed_per_op"] != 0.1 {
		t.Errorf("scrapeLayers: job_ms_mean %v coalesced_share %v shed_per_op %v, want 10 0.5 0.1",
			out["ctlplane.job_ms_mean"], out["ctlplane.coalesced_share"], out["ctlplane.shed_per_op"])
	}
}

func TestParseProcStatCPU(t *testing.T) {
	cases := []struct {
		line string
		want time.Duration
		ok   bool
	}{
		{"4242 (opald) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 5 0 100 1000000 500 18446744073709551615", 2 * time.Second, true},
		{"7 (a (weird) name) R 1 7 7 0 -1 0 0 0 0 0 1 2 0 0 20 0 1 0 1 1 1 1", 30 * time.Millisecond, true},
		{"7 opald S 1", 0, false},
		{"7 (opald) S 1 2 3", 0, false},
	}
	for _, c := range cases {
		got, err := parseProcStatCPU(c.line)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseProcStatCPU(%q) = %v, %v; want %v, ok=%v", c.line, got, err, c.want, c.ok)
		}
	}
}

// reportWith builds a one-workload report from a few values.
func reportWith(e2e map[string]float64, layer map[string]float64, failedShare float64) *report {
	w := &workloadReport{Name: "sim-chaos", FailedShare: failedShare,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
	for k, v := range e2e {
		w.EndToEnd[k] = metric{Value: v}
	}
	for k, v := range layer {
		w.PerLayer[k] = metric{Value: v}
	}
	return &report{Seed: 1, Seconds: 20, Workloads: []*workloadReport{w}}
}

// boundOf returns the bound the tables give an end-to-end metric.
func boundOf(t *testing.T, name string) float64 {
	t.Helper()
	for _, m := range endToEndMetrics {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("no end-to-end metric %q", name)
	return 0
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]float64{"ops_per_s": 100, "op_p50_ms": 10, "setup_s": 1}
	// with returns base with one metric made worse by the given multiple
	// of its own bound.
	with := func(name string, boundsWorse float64) map[string]float64 {
		m := map[string]float64{}
		for k, v := range base {
			m[k] = v
		}
		shift := boundsWorse * boundOf(t, name)
		if name == "ops_per_s" {
			shift = -shift
		}
		m[name] = base[name] * (1 + shift)
		return m
	}
	cases := []struct {
		name   string
		a, b   *report
		fails  []string // metrics expected to fail
		noRows bool
	}{
		{"identical", reportWith(base, nil, 0), reportWith(base, nil, 0), nil, false},
		{"latency worse but within its bound", reportWith(base, nil, 0), reportWith(with("op_p50_ms", 0.9), nil, 0), nil, false},
		{"latency worse than its bound", reportWith(base, nil, 0), reportWith(with("op_p50_ms", 1.1), nil, 0), []string{"op_p50_ms"}, false},
		{"throughput is higher-is-better: a drop fails", reportWith(base, nil, 0), reportWith(with("ops_per_s", 1.1), nil, 0), []string{"ops_per_s"}, false},
		{"a throughput drop within its bound", reportWith(base, nil, 0), reportWith(with("ops_per_s", 0.9), nil, 0), nil, false},
		{"a large gain is not a regression",
			reportWith(base, nil, 0),
			reportWith(map[string]float64{"ops_per_s": 300, "op_p50_ms": 3, "setup_s": 0.2}, nil, 0), nil, false},
		{"setup_s is held to its own bound", reportWith(base, nil, 0), reportWith(with("setup_s", 1.1), nil, 0), []string{"setup_s"}, false},
		{"failed_share may not rise at all",
			reportWith(base, nil, 0), reportWith(base, nil, 0.001), []string{"failed_share"}, false},
		{"a metric missing on one side",
			reportWith(base, nil, 0),
			reportWith(map[string]float64{"ops_per_s": 100, "setup_s": 1}, nil, 0), []string{"op_p50_ms"}, false},
		{"per-layer counts must repeat exactly",
			reportWith(base, map[string]float64{"pvm.msgs_per_op": 12832, "vm.roundtrip_ns": 900}, 0),
			reportWith(base, map[string]float64{"pvm.msgs_per_op": 12833, "vm.roundtrip_ns": 900}, 0), []string{"pvm.msgs_per_op"}, false},
		{"per-layer timings never fail",
			reportWith(base, map[string]float64{"pvm.msgs_per_op": 12832, "vm.roundtrip_ns": 900}, 0),
			reportWith(base, map[string]float64{"pvm.msgs_per_op": 12832, "vm.roundtrip_ns": 9000}, 0), nil, false},
		{"different seeds cannot be compared",
			reportWith(base, nil, 0),
			func() *report { r := reportWith(base, nil, 0); r.Seed = 2; return r }(), nil, true},
	}
	for _, c := range cases {
		rows, problems := compareReports(c.a, c.b)
		if c.noRows {
			if rows != nil || len(problems) == 0 {
				t.Errorf("%s: got %d rows and problems %v, want a refusal", c.name, len(rows), problems)
			}
			continue
		}
		if len(problems) != 0 {
			t.Errorf("%s: unexpected problems %v", c.name, problems)
		}
		var failed []string
		for _, r := range rows {
			if r.Fail {
				failed = append(failed, r.Metric)
			}
		}
		if strings.Join(failed, ",") != strings.Join(c.fails, ",") {
			t.Errorf("%s: failing metrics %v, want %v", c.name, failed, c.fails)
		}
	}
	// A workload missing from B is a problem, not a silent pass.
	b := reportWith(base, nil, 0)
	b.Workloads[0].Name = "sim-physics"
	if _, problems := compareReports(reportWith(base, nil, 0), b); len(problems) != 1 {
		t.Errorf("missing workload: problems %v, want one", problems)
	}
}

func TestCompareFilesExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *report) string {
		path := filepath.Join(dir, name)
		if err := writeReport(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := map[string]float64{"ops_per_s": 100, "op_p50_ms": 10}
	a := write("a.json", reportWith(base, nil, 0))
	slow := write("slow.json", reportWith(map[string]float64{"ops_per_s": 50, "op_p50_ms": 20}, nil, 0))
	other := reportWith(base, nil, 0)
	other.Seconds = 5
	short := write("short.json", other)
	var sb strings.Builder
	if code := compareFiles(&sb, a, a); code != 0 {
		t.Errorf("A vs A exits %d, want 0\n%s", code, sb.String())
	}
	if code := compareFiles(&sb, a, slow); code != 1 {
		t.Errorf("A vs regressed B exits %d, want 1", code)
	}
	if code := compareFiles(&sb, slow, a); code != 0 {
		t.Errorf("regressed A vs recovered B exits %d, want 0", code)
	}
	if code := compareFiles(&sb, a, short); code != 2 {
		t.Errorf("incomparable reports exit %d, want 2", code)
	}
	if code := compareFiles(&sb, a, filepath.Join(dir, "absent.json")); code != 2 {
		t.Errorf("missing file exits %d, want 2", code)
	}
	if !strings.Contains(sb.String(), "REGRESSED") {
		t.Errorf("table does not name the regression:\n%s", sb.String())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the program prints
// from, so the driver's contract and the code cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./bench" || strings.Join(doc.Paths, " ") != "bench" {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a reason of at most 200", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics, want %d", len(doc.EndToEnd), len(endToEndMetrics))
	}
	maxBound := 0.0
	for i, m := range doc.EndToEnd {
		want := endToEndMetrics[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, want)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if endToEndMetrics[0].Name != "setup_s" || endToEndMetrics[0].Bound != maxBound || maxBound > 0.25 {
		t.Errorf("setup_s must carry the largest bound, at most 0.25 (largest is %v)", maxBound)
	}
	if len(doc.PerLayer) != len(perLayerMetrics) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, want %d (at most 128)", len(doc.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range doc.PerLayer {
		want := perLayerMetrics[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, want)
		}
		if seen[m.Name] {
			t.Errorf("per_layer name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// smoke runs one workload end to end for 300 ms and requires every op to
// pass its correctness check.
func smoke(t *testing.T, root, name string) *workloadReport {
	t.Helper()
	w, err := newWorkload(root, name)
	if err != nil {
		t.Fatal(err)
	}
	r := &workloadReport{Name: name}
	if err := runEndToEnd(w, goldenSeed, 300*time.Millisecond, 1, r); err != nil {
		t.Fatal(err)
	}
	if r.Attempted < 1 || r.Failed != 0 || r.FirstFailure != "" {
		t.Fatalf("%s: attempted %d, failed %d: %s", name, r.Attempted, r.Failed, r.FirstFailure)
	}
	for _, m := range endToEndMetrics {
		if v, ok := r.EndToEnd[m.Name]; !ok || !(v.Value > 0) {
			t.Errorf("%s: %s = %v, want a positive value", name, m.Name, v.Value)
		}
	}
	return r
}

func TestSmokeSim(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sim-chaos", "sim-faultfree", "sim-physics"} {
		smoke(t, root, name)
	}
}

func TestSmokeSvc(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: spawns opald")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := buildOpald(root); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"svc-runs", "svc-predict"} {
		r := smoke(t, root, name)
		if name == "svc-runs" && !(r.PollLatenessUS > 0) {
			t.Errorf("svc-runs reports no poll lateness")
		}
	}
}

// TestGoldenDrift shows the determinism check has teeth: a golden that
// disagrees with the simulator fails the op and names the statistic.
func TestGoldenDrift(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	w := simWorkloads(root)["sim-faultfree"]
	if err := w.setup(goldenSeed); err != nil {
		t.Fatal(err)
	}
	if err := w.op(nil); err != nil {
		t.Fatalf("op against the checked-in golden: %v", err)
	}
	w.refs[1].Breakdown.Comm += 1e-9
	err = w.op(nil)
	if err == nil || !strings.Contains(err.Error(), "drifted") {
		t.Fatalf("op against a perturbed golden returned %v, want a drift error", err)
	}
	// Any other seed takes the first occurrence as its reference and
	// then holds the cycle to it.
	if err := w.setup(goldenSeed + 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*cycle; i++ {
		if err := w.op(nil); err != nil {
			t.Fatalf("seed %d op %d: %v", goldenSeed+1, i, err)
		}
	}
}

// TestTracedRun checks the traced run prints every per-layer metric and
// that the numbers separating the workloads are where the README says.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the whole ladder")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload(root, "sim-faultfree")
	if err != nil {
		t.Fatal(err)
	}
	r := &workloadReport{Name: "sim-faultfree"}
	if err := runTraced(root, "smoke", w, goldenSeed, 400*time.Millisecond, r); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(filepath.Join(root, "bench", "out", "trace-smoke.json"))
	if r.Failed != 0 || r.FirstFailure != "" {
		t.Fatalf("failed %d: %s", r.Failed, r.FirstFailure)
	}
	for _, m := range perLayerMetrics {
		if _, ok := r.PerLayer[m.Name]; !ok {
			t.Errorf("traced run printed no %s", m.Name)
		}
	}
	v := func(name string) float64 { return r.PerLayer[name].Value }
	if v("sciddle.macro_share") != 1 || v("sciddle.macro_phases_per_op") != 800 || v("pvm.msgs_per_op") != 12832 {
		t.Errorf("macro_share %v macro_phases_per_op %v msgs_per_op %v, want 1 800 12832",
			v("sciddle.macro_share"), v("sciddle.macro_phases_per_op"), v("pvm.msgs_per_op"))
	}
	if v("budget.vm") != 0 || !(v("budget.trace") > 0) || !(v("harness.frontdoor_share") > 0) {
		t.Errorf("budget.vm %v budget.trace %v frontdoor_share %v", v("budget.vm"), v("budget.trace"), v("harness.frontdoor_share"))
	}
	data, err := os.ReadFile(filepath.Join(root, "bench", "out", "trace-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("trace file holds %d spans (%v)", len(doc.Spans), err)
	}
	for _, s := range doc.Spans {
		if s.Name == "harness.Run" && (s.Parent < 0 || doc.Spans[s.Parent].Name != "op" || doc.Spans[s.Parent].Op != s.Op) {
			t.Fatalf("span %+v is not a child of its op", s)
		}
	}
}
