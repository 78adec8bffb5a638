package opalperf

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"opalperf/internal/paper"
)

var update = flag.Bool("update", false, "rewrite testdata/fidelity.golden and testdata/allocs.golden")

// rowName is the golden row of one metric of e.
func rowName(e paper.Eval, m paper.Metric) string {
	if m.Row == "" {
		return e.Name
	}
	return e.Name + "/" + m.Row
}

// golden returns the contents of the golden file path, first rewriting
// it with got under -update.
func golden(t *testing.T, path, got string) string {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	return string(want)
}

// TestFidelityGolden runs every entry of the evaluation table at
// paper.BenchScale and holds each metric to testdata/fidelity.golden by
// its bits: virtual time is deterministic, so any drift in a figure, a
// table row, the calibration fit, a model prediction or an ablation is a
// behaviour change.  Known deviations (EXPERIMENTS.md) are pinned at
// their current values; a fix shows up here as a diff to explain.
// Refresh with `go test . -run FidelityGolden -update`.  The same runs
// render: every entry's files are written into a scratch directory,
// which must then hold exactly the files the table declares, none empty.
func TestFidelityGolden(t *testing.T) {
	s := paper.BenchScale()
	dir := t.TempDir()
	var got strings.Builder
	var declared []string
	for _, e := range paper.Evals {
		out, err := e.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, m := range out.Metrics {
			fmt.Fprintf(&got, "%s %s %#016x %v\n", rowName(e, m), m.Unit, math.Float64bits(m.Value), m.Value)
		}
		for name, body := range out.Files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		declared = append(declared, e.Files...)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var written []string
	for _, f := range entries {
		written = append(written, f.Name())
		if info, err := f.Info(); err != nil || info.Size() == 0 {
			t.Errorf("%s is empty (%v)", f.Name(), err)
		}
	}
	slices.Sort(declared)
	if !slices.Equal(written, declared) {
		t.Errorf("the entries wrote\n  %v\nand declare\n  %v", written, declared)
	}
	const path = "testdata/fidelity.golden"
	want := golden(t, path, got.String())
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}

// TestOutMatchesTable holds the checked-in out/ to the evaluation table
// without running anything: every file under out/ is declared by exactly
// one entry, and every declared file is there.
func TestOutMatchesTable(t *testing.T) {
	owner := map[string]string{}
	for _, e := range paper.Evals {
		for _, name := range e.Files {
			if prev, ok := owner[name]; ok {
				t.Errorf("out/%s is declared by both %s and %s", name, prev, e.Name)
			}
			owner[name] = e.Name
		}
	}
	entries, err := os.ReadDir("out")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range entries {
		if _, ok := owner[f.Name()]; !ok {
			t.Errorf("out/%s is declared by no entry", f.Name())
		}
		delete(owner, f.Name())
	}
	for name, e := range owner {
		t.Errorf("out/%s, declared by %s, is missing", name, e)
	}
}

// TestAllocsGolden holds the heap allocations of one run of every entry
// of the evaluation table and every scenarioThroughput row to
// testdata/allocs.golden.  Unlike ns/op an allocation count does not
// depend on the host, so it can gate: a count that moves either way is
// a behaviour change to explain, and a real drop is refreshed with
// `go test . -run AllocsGolden -update`.
// AllocsPerRun pins GOMAXPROCS to 1, so no handler run-ahead helper
// starts and every count is the in-place path's.  A collection that
// lands mid-run drops pooled objects (fmt's printers among them) the run
// then allocates again, and the runtime reuses the goroutines it frees,
// which moved counts by a few either way; so each eval starts from a
// collected heap, the collector runs only at a 1 GiB cap, and a measured
// run that still sees a collection fails the test, naming the eval and
// what it allocated.  Every count is then held exact.  The runtime also
// fills a type assertion's call-site cache on a random one in ~1024
// misses, an allocation that lands in whatever run is going on
// (math/rand.New's Source64 assertion moved ScenarioThroughput/mix=chaos
// by one in 1 of 20 full runs); so each eval is measured twice and the
// fewer counts, while an allocation the program makes on every run
// shows in both.
func TestAllocsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := paper.BenchScale()
	var evals []namedRun
	for _, e := range paper.Evals {
		evals = append(evals, namedRun{e.Name, func() error {
			_, err := e.Run(s)
			return err
		}})
	}
	for _, sc := range scenarioThroughput() {
		evals = append(evals, namedRun{"ScenarioThroughput/" + sc.name, sc.run})
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	var got strings.Builder
	for _, e := range evals {
		var err error
		n := math.Inf(1)
		for range 2 {
			debug.FreeOSMemory()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			n = min(n, testing.AllocsPerRun(1, func() { err = e.run() }))
			runtime.ReadMemStats(&m1)
			if gcs := m1.NumGC - m0.NumGC; gcs != 0 {
				t.Fatalf("%s: %d collection(s) while measuring it, %d MiB allocated; its count is not exact",
					e.name, gcs, (m1.TotalAlloc-m0.TotalAlloc)>>20)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		fmt.Fprintf(&got, "%s %.0f\n", e.name, n)
	}
	const path = "testdata/allocs.golden"
	want := golden(t, path, got.String())
	gl, wl := strings.Fields(got.String()), strings.Fields(want)
	if len(gl) != len(wl) {
		t.Fatalf("%s holds %d evals, the test measures %d", path, len(wl)/2, len(gl)/2)
	}
	for i := 0; i < len(gl); i += 2 {
		if gl[i] != wl[i] || gl[i+1] != wl[i+1] {
			t.Errorf("%s: got %s %s allocs, want %s %s", path, gl[i], gl[i+1], wl[i], wl[i+1])
		}
	}
}
