package main

// Golden and behavioural tests for the scenario CLI: list/validate
// output is pinned byte for byte, run output and journals are
// deterministic under -deterministic, and error paths exit non-zero
// with a diagnostic.  Refresh goldens with `go test ./cmd/scenario
// -run Golden -update`.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func TestListGolden(t *testing.T) {
	out, errS, code := runCLI(t, "list", "testdata")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errS)
	}
	checkGolden(t, "list.golden", out)
}

func TestValidateGolden(t *testing.T) {
	out, errS, code := runCLI(t, "validate", "testdata")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errS)
	}
	checkGolden(t, "validate.golden", out)
}

// TestRunGolden pins the full `run` report for the two golden
// scenarios: virtual-time simulation makes every counter in the
// summary deterministic, so the whole stdout is a golden.
func TestRunGolden(t *testing.T) {
	out, errS, code := runCLI(t, "run", "-seeds", "2", "-jobs", "1", "-v", "testdata")
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errS, out)
	}
	checkGolden(t, "run.golden", out)
}

// TestRunDeterministicJournalByteIdentical extends the journal
// bit-identity invariant to the CLI: two `run -deterministic -journal`
// invocations of the same scenario render byte-identical journals and
// byte-identical stdout.  The journal_start preamble is stamped before
// the clock is pinned, so the first line is trimmed.
func TestRunDeterministicJournalByteIdentical(t *testing.T) {
	dir := t.TempDir()
	record := func(name string) ([]byte, string) {
		path := filepath.Join(dir, name)
		out, errS, code := runCLI(t, "run", "-deterministic", "-jobs", "1",
			"-journal", path, filepath.Join("testdata", "killer.yaml"))
		if code != 0 {
			t.Fatalf("exit %d: %s\n%s", code, errS, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			data = data[i+1:]
		}
		return data, out
	}
	j1, out1 := record("a.jsonl")
	j2, out2 := record("b.jsonl")
	if len(j1) == 0 {
		t.Fatal("journal is empty; -deterministic did not enable telemetry")
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("journals differ between identical runs:\n--- first\n%s\n--- second\n%s", j1, j2)
	}
	if out1 != out2 {
		t.Fatalf("stdout differs between identical runs:\n--- first\n%s--- second\n%s", out1, out2)
	}
	for _, want := range []string{`"type":"scenario_start"`, `"type":"scenario_end"`, `"run":"scenario-corpus"`} {
		if !bytes.Contains(j1, []byte(want)) {
			t.Errorf("journal missing %s", want)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	if out, errS, code := runCLI(t); code != 2 || !strings.Contains(errS, "usage:") {
		t.Errorf("no args: exit %d, stderr %q, stdout %q", code, errS, out)
	}
	if _, errS, code := runCLI(t, "frobnicate"); code != 2 || !strings.Contains(errS, "unknown command") {
		t.Errorf("unknown command: exit %d, stderr %q", code, errS)
	}
	if out, _, code := runCLI(t, "help"); code != 0 || !strings.Contains(out, "usage:") {
		t.Errorf("help: exit %d, stdout %q", code, out)
	}
	if _, errS, code := runCLI(t, "validate"); code != 1 || !strings.Contains(errS, "no scenario files") {
		t.Errorf("validate with no paths: exit %d, stderr %q", code, errS)
	}
	if _, errS, code := runCLI(t, "run", filepath.Join("testdata", "absent.yaml")); code != 1 {
		t.Errorf("missing file: exit %d, stderr %q", code, errS)
	}
	bad := filepath.Join("..", "..", "internal", "scenario", "testdata", "invalid", "zero-steps.yaml")
	if _, errS, code := runCLI(t, "validate", bad); code != 1 || !strings.Contains(errS, "steps must be positive") {
		t.Errorf("invalid scenario: exit %d, stderr %q", code, errS)
	}
}

// TestCorpusCoverage keeps the checked-in corpus wired into the CLI:
// the scenarios directory loads, is large enough, and still carries the
// ported chaos/kill-sweep/restart scenarios by name.
func TestCorpusCoverage(t *testing.T) {
	specs, err := gather([]string{filepath.Join("..", "..", "scenarios")})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 25 {
		t.Fatalf("corpus has %d scenarios, want >= 25", len(specs))
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	for _, want := range []string{
		"cascade-failure", "chaos-uniform", "kill-sweep",
		"oracle-kill-anomaly", "restart-of-healing-run",
	} {
		if i := sort.SearchStrings(names, want); i >= len(names) || names[i] != want {
			t.Errorf("corpus missing scenario %q", want)
		}
	}
}
