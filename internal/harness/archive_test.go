package harness_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/fault"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/molecule"
	"opalperf/internal/platform"
	"opalperf/internal/telemetry"
)

func archiveSpec(sys *molecule.System) harness.RunSpec {
	return harness.RunSpec{
		Platform: platform.J90(),
		Sys:      sys,
		Opts:     md.Options{Cutoff: 10, Accounting: true, Minimize: true},
		Servers:  3,
		Steps:    5,
	}
}

// A run with an archive sink lands exactly one summary carrying the
// run's identity, makespan, breakdown and the bit-exact energies hash;
// an identical rerun produces the identical hash under the same spec
// hash — the grouping key the watchdog and percentiles rely on.
func TestRunArchivesSummary(t *testing.T) {
	sys := molecule.Generate(molecule.Config{
		Name: "arch", SoluteAtoms: 60, Waters: 120, Seed: 7, Interleave: true,
	})
	a, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	spec := archiveSpec(sys)
	spec.Archive = &archive.Sink{Archive: a, Tenant: "t-acme", Label: "unit"}
	spec.Scope = &telemetry.Scope{ID: "test-run-1"}
	out1, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scope = &telemetry.Scope{ID: "test-run-2"}
	if _, err := harness.Run(spec); err != nil {
		t.Fatal(err)
	}

	sums := a.Summaries(archive.Query{Tenant: "t-acme"})
	if len(sums) != 2 {
		t.Fatalf("archived %d summaries, want 2", len(sums))
	}
	s := sums[0]
	if s.Run != "test-run-1" || s.Label != "unit" {
		t.Fatalf("summary identity wrong: %+v", s)
	}
	if s.Spec == "" || s.Spec != sums[1].Spec {
		t.Fatalf("spec hash unstable across identical runs: %q vs %q", s.Spec, sums[1].Spec)
	}
	if s.Spec != harness.SpecHashOf(spec) {
		t.Fatalf("archived spec %q != SpecHashOf %q", s.Spec, harness.SpecHashOf(spec))
	}
	if s.Wall != out1.Wall || s.Steps != 5 || s.Servers != 3 {
		t.Fatalf("summary measurements wrong: %+v (wall %v)", s, out1.Wall)
	}
	if s.Platform != platform.J90().Name || s.System != "arch" {
		t.Fatalf("summary platform/system wrong: %+v", s)
	}
	if s.EnergiesHash == "" || s.EnergiesHash != sums[1].EnergiesHash {
		t.Fatalf("energies hash not deterministic: %q vs %q", s.EnergiesHash, sums[1].EnergiesHash)
	}
	if sum := s.Par + s.Seq + s.Comm + s.Sync + s.Idle; sum <= 0 {
		t.Fatalf("breakdown terms empty: %+v", s)
	}
	if s.Chaos {
		t.Fatal("fault-free run marked chaos")
	}
}

// A differing configuration must hash to a different spec — otherwise the
// watchdog would baseline unrelated runs against each other.
func TestSpecHashSeparatesConfigurations(t *testing.T) {
	base := archiveSpec(harness.Sizes(0.1)["small"])
	h := harness.SpecHashOf(base)
	for name, mut := range map[string]func(*harness.RunSpec){
		"servers": func(s *harness.RunSpec) { s.Servers = 5 },
		"steps":   func(s *harness.RunSpec) { s.Steps = 9 },
		"cutoff":  func(s *harness.RunSpec) { s.Opts.Cutoff = 60 },
		"update":  func(s *harness.RunSpec) { s.Opts.UpdateEvery = 10 },
		"seed":    func(s *harness.RunSpec) { s.Opts.Seed = 99 },
		// Each of these moves the makespan by construction: two barriers a
		// phase, a different update charge, injected delays.
		"accounting": func(s *harness.RunSpec) { s.Opts.Accounting = !s.Opts.Accounting },
		"celllist":   func(s *harness.RunSpec) { s.Opts.CellList = !s.Opts.CellList },
		"faults":     func(s *harness.RunSpec) { c := fault.Uniform(1, 0.05); s.Faults = &c },
		// Every reduced system of a size class carries the same name.
		"scale": func(s *harness.RunSpec) { s.Sys = harness.Sizes(0.5)["small"] },
	} {
		mod := base
		mut(&mod)
		if harness.SpecHashOf(mod) == h {
			t.Fatalf("%s change did not change the spec hash", name)
		}
	}
}

// A checkpoint resume is not a fresh run of the same length: it starts
// elsewhere in the trajectory, so its energies differ by design and it
// must not land in the fresh runs' cohort (where the watchdog would call
// the difference a determinism alarm); a run under a kill schedule must
// not share a wall-time baseline with undisturbed ones.  Building the same
// spec twice, system included, must give the same hash.
func TestSpecHashSeparatesResumedAndKilledRuns(t *testing.T) {
	build := func() harness.RunSpec { return archiveSpec(harness.Sizes(0.1)["small"]) }
	fresh := build()
	if harness.SpecHashOf(fresh) != harness.SpecHashOf(build()) {
		t.Fatal("two builds of the same spec hash differently")
	}

	out, err := harness.Run(fresh)
	if err != nil {
		t.Fatal(err)
	}
	cp := md.CheckpointOf(fresh.Sys, out.Result)
	resumed := fresh
	resumed.Sys = cp.Sys
	if resumed.Opts, err = cp.Resume(fresh.Opts); err != nil {
		t.Fatal(err)
	}
	if harness.SpecHashOf(resumed) == harness.SpecHashOf(fresh) {
		t.Fatal("a resumed run hashes like a fresh run of the same length")
	}

	killed := fresh
	killed.Opts.SelfHeal = true
	healing := killed
	killed.Opts.Kills = func(int) []int { return nil }
	if harness.SpecHashOf(killed) == harness.SpecHashOf(healing) {
		t.Fatal("a kill schedule did not change the spec hash")
	}
}

// environmentalOptions are the md.Options fields SpecHashOf leaves out on
// purpose: they observe or bound a run without changing its physics or
// its virtual timing.
var environmentalOptions = map[string]bool{
	"AfterInit": true, "AfterStep": true, "Cancel": true, "ServerQuit": true, // hooks
	"Trajectory": true, "CheckpointEvery": true, "CheckpointSink": true, "CheckpointAt": true, // sinks
	"CallTimeout": true, "CallRetries": true, // real-time bounds, inert in virtual time
	"LoD": true, // bit-identical by contract
}

// Every md.Options field is either hashed or declared environmental, so
// the next field added to the engine cannot be forgotten: the test sets
// each field, alone, to a non-zero value and watches the hash.
func TestSpecHashCoversEveryOption(t *testing.T) {
	base := archiveSpec(harness.Sizes(0.1)["small"])
	base.Opts = md.Options{}
	h := harness.SpecHashOf(base)
	typ := reflect.TypeOf(base.Opts)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		mod := base
		f := reflect.ValueOf(&mod.Opts).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(7.5)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Ptr:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Func:
			f.Set(reflect.MakeFunc(f.Type(), func([]reflect.Value) []reflect.Value { panic("never called") }))
		default:
			t.Fatalf("md.Options.%s: kind %s not handled by this test", name, f.Kind())
		}
		switch changed := harness.SpecHashOf(mod) != h; {
		case changed && environmentalOptions[name]:
			t.Errorf("md.Options.%s is declared environmental but changes the spec hash", name)
		case !changed && !environmentalOptions[name]:
			t.Errorf("md.Options.%s is neither hashed by SpecHashOf nor declared environmental", name)
		}
	}
	for name := range environmentalOptions {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("environmentalOptions names %s, which md.Options no longer has", name)
		}
	}
}

// The journal mirror lands the run's lifecycle events in the archive
// under the run ID, alongside the summary — the full ingestion path the
// -archive CLI flags arm.
func TestJournalMirrorsIntoArchive(t *testing.T) {
	sys := molecule.Generate(molecule.Config{
		Name: "arch", SoluteAtoms: 60, Waters: 120, Seed: 7, Interleave: true,
	})
	a, err := archive.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	j := telemetry.StartJournal(nil, 32)
	defer telemetry.StopJournal()
	j.SetClock(func() time.Time { return time.Unix(1700000000, 0).UTC() })
	j.SetMirror(a.MirrorEvent)

	spec := archiveSpec(sys)
	spec.Archive = &archive.Sink{Archive: a}
	spec.Scope = &telemetry.Scope{ID: "mirrored-run"}
	if _, err := harness.Run(spec); err != nil {
		t.Fatal(err)
	}

	evs := a.Select(archive.Query{Kind: archive.KindEvent, Run: "mirrored-run"})
	if len(evs) < 2 {
		t.Fatalf("mirrored %d events, want at least run_start+run_end", len(evs))
	}
	var sawStart, sawEnd bool
	for _, e := range evs {
		line := string(e.Data)
		if strings.Contains(line, `"type":"run_start"`) {
			sawStart = true
		}
		if strings.Contains(line, `"type":"run_end"`) {
			sawEnd = true
		}
		if strings.HasSuffix(line, "\n") {
			t.Fatalf("mirrored event kept its newline: %q", line)
		}
	}
	if !sawStart || !sawEnd {
		t.Fatalf("lifecycle events missing: start=%v end=%v", sawStart, sawEnd)
	}
	if sums := a.Summaries(archive.Query{Run: "mirrored-run"}); len(sums) != 1 {
		t.Fatalf("summaries = %d, want 1", len(sums))
	}
}
