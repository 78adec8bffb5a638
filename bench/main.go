// Command bench is opalperf's front-door benchmark: five named workloads
// driven through the doors users come in by (harness.Run in-process, HTTP
// against a spawned opald), every result checked, every metric printed by
// name with its unit.
//
//	go run ./bench                                  # all workloads, end-to-end + traced run
//	go run ./bench -workload sim-chaos -trace 0     # end-to-end metrics only, tracing off
//	go run ./bench -workload svc-runs -trace 1      # per-layer metrics from the traced run
//	go run ./bench -compare A.json B.json           # judge report B against baseline A
//	go run ./bench -update-golden                   # regenerate bench/golden.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the full report (host metadata,
// sample counts, slice rates) goes to -out.  See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/harness"
)

// workloadNames is the fixed order workloads run and print in.
var workloadNames = []string{"sim-chaos", "sim-faultfree", "sim-physics", "svc-runs", "svc-predict"}

// setupReps is how many times an end-to-end run sets the workload up; the
// median is setup_s, so one slow boot does not decide the metric.
const setupReps = 5

func newWorkload(root, name string) (workload, error) {
	if w, ok := simWorkloads(root)[name]; ok {
		return w, nil
	}
	switch name {
	case "svc-runs":
		return &svcRuns{svcBase: svcBase{root: root}}, nil
	case "svc-predict":
		return &svcPredict{svcBase: svcBase{root: root}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// hostInfo lets two reports be judged comparable before they are compared.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitHead    string `json:"git_head"`
}

func hostOf(root string) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GitHead: "unknown",
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.GitHead = strings.TrimSpace(string(out))
	}
	return h
}

// report is the full output document, the input of -compare.
type report struct {
	Host      hostInfo          `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadReport `json:"workloads"`
}

// workloadReport is one workload's share of the report.  Attempted and
// Failed count the ops of every window the run measured.
type workloadReport struct {
	Name         string            `json:"name"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	FailedShare  float64           `json:"failed_share"`
	FirstFailure string            `json:"first_failure,omitempty"`
	EndToEnd     map[string]metric `json:"end_to_end,omitempty"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	// SliceRates are the completion rates, ops/s, of the ten equal slices
	// of the untraced window; ops_per_s is their median.
	SliceRates []float64 `json:"slice_rates,omitempty"`
	// SetupsS are the individual set-up times; setup_s is their median.
	SetupsS []float64 `json:"setups_s,omitempty"`
	// PollLatenessUS is the median overshoot of svc-runs' 1 ms poll sleep:
	// how late the load generator itself ran.
	PollLatenessUS float64 `json:"poll_lateness_us,omitempty"`
}

func (r *workloadReport) count(win *window) {
	r.Attempted += win.attempted()
	r.Failed += win.failed()
	if r.FirstFailure == "" {
		r.FirstFailure = win.firstFailure
	}
}

func (r *workloadReport) fail(err error) {
	if r.FirstFailure == "" {
		r.FirstFailure = err.Error()
	}
	fmt.Fprintf(os.Stderr, "bench: %s: FAILED %v\n", r.Name, err)
}

// runEndToEnd measures w with tracing off.
func runEndToEnd(w workload, seed int64, dur time.Duration, reps int, r *workloadReport) error {
	for i := 0; i < reps; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return err
		}
		r.SetupsS = append(r.SetupsS, time.Since(t0).Seconds())
	}
	win, err := runWindow(w, dur, nil)
	if err != nil {
		w.teardown()
		return err
	}
	r.count(win)
	r.EndToEnd = endToEndOf(win, r.SetupsS)
	r.SliceRates = win.sliceRates()
	if sr, ok := w.(*svcRuns); ok {
		r.PollLatenessUS = median(sr.lateness)
	}
	if err := w.teardown(); err != nil {
		r.fail(err)
	}
	return nil
}

// runtimeSample reads the allocation and GC-CPU counters of this process.
type runtimeSample struct{ objects, bytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		objects: float64(s[0].Value.Uint64()), bytes: float64(s[1].Value.Uint64()),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
	}
}

// runTraced is the separate traced run: half its time is a window whose
// ops alternate between traced and untraced, the rest goes to the
// workload's own layer measurements and the unit-cost ladder.
func runTraced(root, name string, w workload, seed int64, dur time.Duration, r *workloadReport) error {
	if err := w.setup(seed); err != nil {
		return err
	}
	tr := newTracer()
	if err := w.beginTrace(); err != nil {
		w.teardown()
		return err
	}
	rt0 := readRuntime()
	win, err := runWindow(w, dur/2, tr)
	rt1 := readRuntime()
	if err != nil {
		w.teardown()
		return err
	}
	r.count(win)

	out := map[string]float64{}
	out["trace_overhead_share"] = win.tracedOverhead()
	lat := win.latenciesMS()
	out["op.p95_ms"] = archive.Percentile(lat, 95)
	if out["process.peak_rss_mb"], err = peakRSSMB(w.pid()); err != nil {
		w.teardown()
		return err
	}
	inProcess := w.pid() == 0
	if ops := float64(len(lat)); inProcess && ops > 0 {
		out["go.allocs_per_op"] = (rt1.objects - rt0.objects) / ops
		out["go.bytes_per_op"] = (rt1.bytes - rt0.bytes) / ops
		if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
			out["go.gc_cpu_share"] = (rt1.gcCPU - rt0.gcCPU) / cpu
		}
	}
	if err := w.layers(win, tr, dur/8, out); err != nil {
		w.teardown()
		return err
	}
	if err := w.teardown(); err != nil {
		r.fail(err)
	}

	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(outDir, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	if err := runLadder(w.ladderSpec(), scratch, dur*3/8, out); err != nil {
		return err
	}
	if inProcess {
		budgets(median(lat), out)
	}

	r.PerLayer = map[string]metric{}
	for _, m := range perLayerMetrics {
		r.PerLayer[m.Name] = metric{Value: out[m.Name], Unit: m.Unit}
	}
	return tr.write(filepath.Join(outDir, "trace-"+name+".json"))
}

// budgets estimates, from outside the program, where one op's host time
// goes: each layer's unit cost times the exact number of units the op
// consumes, as a share of the op's median latency.  It is the host-clock
// twin of the paper's per-term breakdown; the honest remainder is
// budget.unattributed.
func budgets(p50ms float64, out map[string]float64) {
	op := p50ms * 1e6 // ns
	if op <= 0 {
		return
	}
	// Macro-replayed phases account their messages without crossing the
	// kernel, so only the fine-grained share pays the handoff.
	kernelMsgs := out["pvm.msgs_per_op"] * (1 - out["sciddle.macro_share"])
	out["budget.vm"] = out["vm.roundtrip_ns"] / 2 * kernelMsgs / op
	out["budget.forcefield"] = out["forcefield.ns_per_pair"] * out["forcefield.pairs_per_op"] / op
	out["budget.pairlist"] = out["pairlist.update_ns_per_check"] * out["pairlist.checks_per_op"] / op
	out["budget.trace"] = (out["trace.segment_ns"]*out["trace.segments_per_op"] + out["trace.reduce_ms"]*1e6) / op
	// The front door contains the trace recorder; what is left of it is
	// the run bookkeeping around the simulation.
	out["budget.frontdoor"] = out["harness.frontdoor_share"] - out["budget.trace"]
	out["budget.unattributed"] = 1 - out["budget.vm"] - out["budget.forcefield"] - out["budget.pairlist"] - out["harness.frontdoor_share"]
}

// steadyRuntime re-executes the benchmark with GODEBUG=madvdontneed=0, which
// the opald children inherit.  The sandbox this benchmark is judged in takes
// guest pages back after they sat free for a few seconds, and the first
// touch of such a page costs 2-15 µs there instead of 0.2 µs on a machine of
// one's own.  The Go runtime's scavenger returns the simulator's large
// short-lived arrays to the kernel and faults them in again ~1 500 times an
// op, so with the default MADV_DONTNEED the same binary ran 21-28 sim-chaos
// ops/s depending on how long the box had idled before.  With MADV_FREE the
// pages stay mapped and the window measures the program, not the
// hypervisor's memory policy.  Nothing else about the runtime is changed.
func steadyRuntime() error {
	const want = "madvdontneed=0"
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, want) {
		return nil
	}
	if godebug != "" {
		godebug += ","
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	os.Setenv("GODEBUG", godebug+want)
	return syscall.Exec(exe, os.Args, os.Environ())
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module opalperf\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the opalperf module (no go.mod found)")
		}
		dir = parent
	}
}

// updateGolden regenerates bench/golden.json from the tree as it stands.
func updateGolden(root string) error {
	g := goldenFile{Seed: goldenSeed, Workloads: map[string][]simStats{}}
	for name, w := range simWorkloads(root) {
		for _, spec := range deriveSpecs(w.build(), w.faults, goldenSeed) {
			out, err := harness.Run(spec)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			g.Workloads[name] = append(g.Workloads[name], statsOf(out))
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root), append(data, '\n'), 0o644)
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	out      string
	compare  bool
	golden   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs all five")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "workload seed: derives every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured window per workload, seconds")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; both")
	flag.StringVar(&o.out, "out", "", "write the full JSON report here (default bench/out/report.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two reports: -compare A.json B.json")
	flag.BoolVar(&o.golden, "update-golden", false, "regenerate bench/golden.json and exit")
	flag.Parse()
	os.Exit(run(o, flag.Args()))
}

func run(o options, args []string) int {
	if o.compare {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two report files")
			return 2
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) > 0 || o.seconds <= 0 || (o.trace != "0" && o.trace != "1" && o.trace != "both") {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -help")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.golden {
		if err := updateGolden(root); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if err := steadyRuntime(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	// A signal must not leave a daemon behind.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigC
		killChildren()
		os.Exit(130)
	}()

	rep := report{Host: hostOf(root), Seed: o.seed, Seconds: o.seconds}
	var code int
	if o.workload == "" {
		code, err = runEach(root, o, &rep)
	} else {
		code, err = runOne(root, o, &rep)
	}
	if err != nil {
		killChildren()
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if o.out == "" {
		o.out = filepath.Join(root, "bench", "out", "report.json")
	}
	if err := writeReport(o.out, &rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// The contract line: last on standard output, one per workload.
	for _, r := range rep.Workloads {
		line, err := contractLine(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(line)
	}
	return code
}

// contractLine renders the driver's result object: correct, attempted,
// failed and every measured metric as {value, unit}.
func contractLine(r *workloadReport) (string, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	all := map[string]valueUnit{}
	for k, v := range r.EndToEnd {
		all[k] = valueUnit{v.Value, v.Unit}
	}
	for k, v := range r.PerLayer {
		all[k] = valueUnit{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, all})
	return string(line), err
}

// runOne measures the one workload o names in this process.
func runOne(root string, o options, rep *report) (int, error) {
	w, err := newWorkload(root, o.workload)
	if err != nil {
		return 0, err
	}
	if strings.HasPrefix(o.workload, "svc-") {
		if err := buildOpald(root); err != nil {
			return 0, err
		}
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	r := &workloadReport{Name: o.workload}
	if o.trace != "1" {
		err = runEndToEnd(w, o.seed, dur, setupReps, r)
	}
	if err == nil && o.trace != "0" {
		err = runTraced(root, o.workload, w, o.seed, dur, r)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", o.workload, err)
	}
	r.Correct = r.Failed == 0 && r.FirstFailure == ""
	if r.Attempted > 0 {
		r.FailedShare = float64(r.Failed) / float64(r.Attempted)
	}
	rep.Workloads = append(rep.Workloads, r)
	printWorkload(r)
	if !r.Correct {
		return 1, nil
	}
	return 0, nil
}

// runEach measures all five workloads, each in a process of its own: the
// driver runs one workload per invocation, and a fresh process keeps one
// workload's heap and peak RSS out of the next one's numbers.
func runEach(root string, o options, rep *report) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, "bench", "out"), "parts-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	code := 0
	for _, name := range workloadNames {
		part := filepath.Join(dir, name+".json")
		cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", o.trace, "-out", part)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		track(cmd)
		err := cmd.Wait()
		untrack(cmd)
		sub, lerr := loadReport(part)
		if lerr != nil {
			return 0, fmt.Errorf("%s: %v (%v)", name, lerr, err)
		}
		if err != nil {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, sub.Workloads...)
	}
	return code, nil
}

func writeReport(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printWorkload prints every metric by name with its unit, for people.
func printWorkload(r *workloadReport) {
	fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d\n", r.Name, r.Attempted, r.Failed)
	for _, m := range endToEndMetrics {
		if v, ok := r.EndToEnd[m.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-34s %14.6g %-6s n=%d\n", m.Name, v.Value, v.Unit, v.Samples)
		}
	}
	for _, m := range perLayerMetrics {
		if v, ok := r.PerLayer[m.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
}
