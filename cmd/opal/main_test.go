package main

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/ctlplane"
	"opalperf/internal/harness"
	"opalperf/internal/scenario"
	"opalperf/internal/telemetry"
)

// opalSpec is the RunSpec opal builds from these flags for a generated
// system, before it attaches sinks and hooks.
func opalSpec(t *testing.T, args ...string) harness.RunSpec {
	t.Helper()
	fs := flag.NewFlagSet("opal", flag.ContinueOnError)
	runCfg := runConfig(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := runCfg()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := cfg.RunSpec(harness.Sizes(cfg.Fleet.Scale)[cfg.Fleet.Size])
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// oneSeed parses a scenario document and runs its sweep index.
func oneSeed(t *testing.T, src string, sweep int) (*scenario.Spec, scenario.Report) {
	t.Helper()
	spec, err := scenario.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	rep := scenario.RunScenario(spec, sweep, nil)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	return spec, rep
}

// waitDone polls the control plane's API until the job is done.
func waitDone(t *testing.T, h http.Handler, id string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/runs/"+id, nil))
		if strings.Contains(rec.Body.String(), `"state":"done"`) {
			return
		}
	}
	t.Fatalf("job %s never finished", id)
}

// One configuration run as an opald job, as opal's own RunSpec and as a
// one-seed scenario lands three archived summaries under one run
// identity, so the watchdog and opalquery compare them as one cohort.
// The same identity fixes the scenario cohort rule: the fault seed is
// part of it, kill schedules count by presence.
func TestOneRunIdentityAcrossFrontEnds(t *testing.T) {
	a, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	srv := ctlplane.New(ctlplane.Config{Workers: 1, Archive: a})
	srv.Start()
	defer srv.Drain()
	id, _, err := srv.Submit("t", ctlplane.JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 4, Cutoff: 10, UpdateEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv.Handler(), id)

	spec := opalSpec(t, "-size", "small", "-scale", "0.02", "-servers", "2", "-steps", "4", "-cutoff", "10", "-update", "2")
	spec.Archive = &archive.Sink{Archive: a}
	spec.Scope = &telemetry.Scope{ID: "opal"}
	if _, err := harness.Run(spec); err != nil {
		t.Fatal(err)
	}

	const fleet = `
fleet:
  size: small
  scale: 0.02
  servers: 2
  steps: 4
options:
  cutoff: 10
  update_every: 2
`
	sc, rep := oneSeed(t, "name: identity"+fleet+"  accounting: true\n", 0)
	if err := a.AppendSummary(scenario.Summarize(sc, rep)); err != nil {
		t.Fatal(err)
	}

	want := harness.SpecHashOf(spec)
	sums := a.Summaries(archive.Query{})
	if len(sums) != 3 {
		t.Fatalf("archived %d summaries, want 3", len(sums))
	}
	for _, s := range sums {
		if s.Spec != want {
			t.Errorf("summary %s (%s) carries spec %s, want %s", s.Run, s.Label, s.Spec, want)
		}
	}

	faulted := "name: cohort-faults" + fleet + "  accounting: true\nfaults:\n  seed: 5\n  rate: 0.02\n"
	_, f0 := oneSeed(t, faulted, 0)
	_, f1 := oneSeed(t, faulted, 1)
	if f0.Spec == f1.Spec {
		t.Error("two fault seeds of a faults scenario share an identity")
	}
	opalFaulted := opalSpec(t, "-size", "small", "-scale", "0.02", "-servers", "2", "-steps", "4", "-cutoff", "10",
		"-update", "2", "-fault-rate", "0.02", "-fault-seed", "5")
	if f0.Spec != harness.SpecHashOf(opalFaulted) {
		t.Error("sweep 0 of a faults scenario is not the opal run with the same fault seed")
	}

	killed := "name: cohort-kills" + fleet + "  self_heal: true\nkills:\n  seed: 1\n  rate: 0.2\n"
	_, k0 := oneSeed(t, killed, 0)
	_, k1 := oneSeed(t, killed, 1)
	if k0.Spec != k1.Spec {
		t.Error("two seeds of a kill sweep landed in different cohorts")
	}
	if k0.Spec == want {
		t.Error("a kill sweep shares the undisturbed run's identity")
	}
}

// TestTraceJSON drives the built command: -trace-json writes a Chrome
// trace holding segments and RPC flows, and the breakdown opal prints is
// the same with and without it — the run keeps its intervals only when a
// reader asks, and keeping them moves no term.
func TestTraceJSON(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "opal")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	breakdown := func(args ...string) string {
		t.Helper()
		args = append([]string{"-size", "small", "-scale", "0.05", "-servers", "3", "-steps", "4", "-cutoff", "10"}, args...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("opal %v: %v\n%s", args, err, out)
		}
		s := string(out)
		i := strings.Index(s, "virtual execution time")
		j := strings.Index(s, "idle (load imbalance)")
		if i < 0 || j < i {
			t.Fatalf("opal %v printed no breakdown:\n%s", args, s)
		}
		return s[i : j+strings.IndexByte(s[j:], '\n')]
	}
	file := filepath.Join(dir, "f.json")
	plain, traced := breakdown(), breakdown("-trace-json", file)
	if plain != traced {
		t.Fatalf("breakdown moved under -trace-json:\n%s\nvs\n%s", plain, traced)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Ph, Cat string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	segments, flows := 0, 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Cat != "rpc":
			segments++
		case ev.Ph == "s":
			flows++
		}
	}
	if segments == 0 || flows == 0 {
		t.Fatalf("trace holds %d segments and %d flows, want both", segments, flows)
	}
}
