package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// minimalSpec is the smallest valid scenario document.
const minimalSpec = `
name: minimal
fleet:
  servers: 2
  steps: 2
`

func TestParseMinimal(t *testing.T) {
	spec, err := Parse([]byte(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "minimal" {
		t.Fatalf("name = %q", spec.Name)
	}
	// Defaults.
	if spec.Fleet.Platform != "j90" || spec.Fleet.Size != "small" || spec.Fleet.Scale != 1.0 {
		t.Fatalf("fleet defaults wrong: %+v", spec.Fleet)
	}
	if spec.Options.Cutoff != 60 || spec.Options.UpdateEvery != 1 || !spec.Options.Minimize {
		t.Fatalf("option defaults wrong: %+v", spec.Options)
	}
}

func TestParseFullDocument(t *testing.T) {
	src := `
name: full
description: every block at once
fleet:
  platform: j90
  size: small
  scale: 0.02
  servers: 3
  steps: 8
options:
  cutoff: 10
  update_every: 2
  self_heal: true
  max_respawns: 5
  lod: auto
kills:
  seed: 4
  rate: 0.1
events:
  - at: {step: 1}
    action: kill_server
    rank: 2
  - at: {step: 3}
    action: checkpoint
assert:
  energies_bit_identical: true
  respawns_equal_kills: true
  heal_within_seconds: 0.5
  lod_macro_min: 1
`
	spec, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kills == nil || spec.Kills.Seed != 4 || spec.Kills.Rate != 0.1 {
		t.Fatalf("kills block: %+v", spec.Kills)
	}
	if len(spec.Events) != 2 || spec.Events[0].Rank != 2 || spec.Events[1].Action != ActCheckpoint {
		t.Fatalf("events: %+v", spec.Events)
	}
	if spec.Assert.HealWithinSeconds == nil || *spec.Assert.HealWithinSeconds != 0.5 {
		t.Fatalf("assert: %+v", spec.Assert)
	}
	if got := spec.AssertNames(); strings.Join(got, ",") !=
		"energies_bit_identical,respawns_equal_kills,heal_within_seconds,lod_macro_min" {
		t.Fatalf("AssertNames: %v", got)
	}
}

// TestParseRejects pins the strict-decode and validation vocabulary: an
// unknown key, bad duration or out-of-range rank must fail loudly, never
// decay into a scenario that silently asserts nothing.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown top key", "name: x\nbogus: 1\nfleet:\n  servers: 1\n  steps: 1", `unknown key "bogus"`},
		{"unknown fleet key", "name: x\nfleet:\n  nodes: 2\n  steps: 1", `fleet: unknown key "nodes"`},
		{"unknown assert key", "name: x\nfleet:\n  servers: 1\n  steps: 1\nassert:\n  energies: true", `assert: unknown key "energies"`},
		{"zero steps", "name: x\nfleet:\n  servers: 1\n  steps: 0", "steps must be positive"},
		{"negative steps", "name: x\nfleet:\n  servers: 1\n  steps: -2", "steps must be positive"},
		{"bad name", "name: Bad_Name\nfleet:\n  servers: 1\n  steps: 1", "lower-case"},
		{"missing name", "fleet:\n  servers: 1\n  steps: 1", "missing name"},
		{"rank out of range", `
name: x
fleet:
  servers: 2
  steps: 4
options:
  self_heal: true
events:
  - at: {step: 1}
    action: kill_server
    rank: 2
`, "rank 2 outside the fleet [0, 2)"},
		{"negative rank", `
name: x
fleet:
  servers: 2
  steps: 4
options:
  self_heal: true
events:
  - at: {step: 1}
    action: kill_server
    rank: -1
`, "rank -1 outside"},
		{"kill without self-heal", `
name: x
fleet:
  servers: 2
  steps: 4
events:
  - at: {step: 1}
    action: kill_server
    rank: 0
`, "needs options.self_heal"},
		{"event step past run", `
name: x
fleet:
  servers: 2
  steps: 4
options:
  self_heal: true
events:
  - at: {step: 4}
    action: kill_server
    rank: 0
`, "step 4 outside the run [0, 4)"},
		{"negative heal budget", `
name: x
fleet:
  servers: 2
  steps: 4
assert:
  heal_within_seconds: -1
`, "heal_within_seconds must be positive"},
		{"rate above one", "name: x\nfleet:\n  servers: 1\n  steps: 1\nfaults:\n  rate: 1.5", "outside [0, 1]"},
		{"negative fault seed", "name: x\nfleet:\n  servers: 1\n  steps: 1\nfaults:\n  seed: -1", "non-negative integer"},
		{"unknown action", `
name: x
fleet:
  servers: 2
  steps: 4
events:
  - at: {step: 1}
    action: explode
`, `unknown action "explode"`},
		{"field on wrong action", `
name: x
fleet:
  servers: 2
  steps: 4
events:
  - at: {step: 1}
    action: checkpoint
    rank: 0
`, `key "rank" does not apply`},
		{"restart at final step", `
name: x
fleet:
  servers: 2
  steps: 4
events:
  - at: {step: 4}
    action: restart
`, "step 4 outside [1, 4)"},
		{"restart at step zero", `
name: x
fleet:
  servers: 2
  steps: 4
events:
  - at: {step: 0}
    action: restart
`, "step 0 outside [1, 4)"},
		{"two restarts", `
name: x
fleet:
  servers: 2
  steps: 6
events:
  - at: {step: 2}
    action: restart
  - at: {step: 4}
    action: restart
`, "at most one restart"},
		{"oracle with restart", `
name: x
fleet:
  servers: 2
  steps: 6
events:
  - at: {step: 2}
    action: restart
assert:
  oracle:
    anomaly: true
`, "incompatible with a restart"},
		{"oracle bad term", `
name: x
fleet:
  servers: 2
  steps: 4
assert:
  oracle:
    anomaly: true
    terms: [warp]
`, `unknown model term "warp"`},
		{"oracle serial", `
name: x
fleet:
  servers: 0
  steps: 4
assert:
  oracle:
    anomaly: false
`, "needs a parallel fleet"},
		{"accounting with self-heal", `
name: x
fleet:
  servers: 2
  steps: 4
options:
  accounting: true
  self_heal: true
`, "incompatible"},
		{"inject conflicts with faults", `
name: x
fleet:
  servers: 2
  steps: 4
faults:
  rate: 0.1
events:
  - at: {step: 1}
    action: inject_fault
    rate: 0.2
`, "one fault plane per run"},
		{"inject until before start", `
name: x
fleet:
  servers: 2
  steps: 6
events:
  - at: {step: 3}
    action: inject_fault
    rate: 0.2
    until: {step: 2}
`, "until step 2 not after start step 3"},
		{"float for int", "name: x\nfleet:\n  servers: 1.5\n  steps: 1", "expected an integer"},
		{"string for bool", "name: x\nfleet:\n  servers: 1\n  steps: 1\noptions:\n  self_heal: yes", "expected a boolean"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("accepted invalid scenario:\n%s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestTestdataCorpus checks the checked-in decoder corpus: everything
// under testdata/valid parses, everything under testdata/invalid is
// rejected.  The same files seed FuzzScenarioParse.
func TestTestdataCorpus(t *testing.T) {
	valid, err := filepath.Glob("testdata/valid/*.yaml")
	if err != nil || len(valid) == 0 {
		t.Fatalf("no valid corpus files: %v", err)
	}
	for _, f := range valid {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(src); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
	invalid, err := filepath.Glob("testdata/invalid/*.yaml")
	if err != nil || len(invalid) == 0 {
		t.Fatalf("no invalid corpus files: %v", err)
	}
	for _, f := range invalid {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: accepted", f)
		}
	}
}

// FuzzScenarioParse drives the YAML-subset parser and the strict decoder
// with arbitrary bytes: they must never panic, and anything that decodes
// must re-validate cleanly (Parse's contract is parse+validate).
func FuzzScenarioParse(f *testing.F) {
	for _, dir := range []string{"testdata/valid", "testdata/invalid"} {
		files, _ := filepath.Glob(dir + "/*.yaml")
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(src)
		}
	}
	f.Add([]byte(minimalSpec))
	f.Add([]byte("events:\n  - at: {step: 1}\n    action: kill_server"))
	f.Fuzz(func(t *testing.T, src []byte) {
		spec, err := Parse(src)
		if err != nil {
			return
		}
		// A spec that survived Parse must re-validate: Validate ran once
		// inside Parse and must be deterministic.
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("Parse accepted but Validate rejects: %v\n%s", verr, src)
		}
		if spec.Name == "" {
			t.Fatalf("validated spec with empty name:\n%s", src)
		}
	})
}
