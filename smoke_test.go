package opalperf

// Smoke tests: build every command and example and run it with quick
// arguments, so the CLI surface stays wired end to end.  These exec the
// Go toolchain; skip them with -short.

import (
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// buildAll compiles all commands into a temp dir once per test binary.
// The dir must outlive the first caller (several tests share the cache),
// so it is created with os.MkdirTemp and removed in TestMain, not tied to
// any one test's TempDir.
var builtDir string

func TestMain(m *testing.M) {
	code := m.Run()
	if builtDir != "" {
		os.RemoveAll(builtDir)
	}
	os.Exit(code)
}

func buildCommands(t *testing.T) string {
	t.Helper()
	if builtDir != "" {
		return builtDir
	}
	dir, err := os.MkdirTemp("", "opalperf-cmds-")
	if err != nil {
		t.Fatalf("mktemp: %v", err)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	builtDir = dir
	return dir
}

func runBuilt(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

// runBuiltErr runs a built command expecting a non-zero exit, and
// returns its combined output for error-message assertions.
func runBuiltErr(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v exited zero, want failure:\n%s", name, args, out)
	}
	return string(out)
}

func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := buildCommands(t)

	t.Run("opal", func(t *testing.T) {
		out := runBuilt(t, dir, "opal",
			"-size", "small", "-scale", "0.1", "-servers", "2", "-steps", "2",
			"-metrics", "-timeline")
		for _, want := range []string{"virtual execution time", "middleware metrics", "[#]=compute"} {
			if !strings.Contains(out, want) {
				t.Errorf("opal output missing %q", want)
			}
		}
	})
	t.Run("opal-serial", func(t *testing.T) {
		out := runBuilt(t, dir, "opal",
			"-size", "small", "-scale", "0.1", "-servers", "0", "-steps", "2", "-v")
		if !strings.Contains(out, "simulation steps") {
			t.Error("serial verbose output missing step table")
		}
	})
	t.Run("opal-checkpoint-cycle", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "c.ckpt")
		runBuilt(t, dir, "opal", "-size", "small", "-scale", "0.1",
			"-servers", "2", "-steps", "2", "-dynamics", "-checkpoint", ckpt)
		out := runBuilt(t, dir, "opal", "-resume", ckpt,
			"-servers", "2", "-steps", "1", "-dynamics")
		if !strings.Contains(out, "resuming from") {
			t.Error("resume banner missing")
		}
	})
	t.Run("opal-lod", func(t *testing.T) {
		// Macro replay is the default and must be invisible: everything
		// the command prints is byte-identical to the fine-grained
		// reference, and the trace holds the same events (the recorder
		// sees them in a different order, so compare as a multiset).
		tmp := t.TempDir()
		run := func(name string, lod ...string) (string, []string) {
			trace := filepath.Join(tmp, name+".json")
			args := append(lod, "-size", "small", "-scale", "0.1", "-servers", "2",
				"-steps", "3", "-v", "-metrics", "-timeline", "-trace-json", trace)
			out := runBuilt(t, dir, "opal", args...)
			return strings.ReplaceAll(out, trace, "TRACE"), traceEvents(t, trace)
		}
		def, defEvents := run("default")
		off, offEvents := run("off", "-lod", "off")
		if def != off {
			t.Errorf("default output differs from -lod=off:\n--- off ---\n%s\n--- default ---\n%s", off, def)
		}
		if len(offEvents) == 0 || !reflect.DeepEqual(defEvents, offEvents) {
			t.Errorf("default trace differs from -lod=off as a multiset (%d vs %d events)",
				len(defEvents), len(offEvents))
		}
		if auto, _ := run("auto", "-lod", "auto"); auto != off {
			t.Errorf("-lod=auto output differs from -lod=off")
		}
		for _, bad := range []string{"on", "bogus"} {
			runBuiltErr(t, dir, "opal", "-lod", bad)
		}
	})
	t.Run("opal-kill-rank-out-of-range", func(t *testing.T) {
		out := runBuiltErr(t, dir, "opal",
			"-size", "small", "-scale", "0.1", "-servers", "2", "-steps", "4",
			"-supervise", "-kill-server", "1:9")
		if !strings.Contains(out, "outside the fleet") {
			t.Errorf("out-of-range kill rank not diagnosed:\n%s", out)
		}
	})
	t.Run("opal-negative-checkpoint-every", func(t *testing.T) {
		out := runBuiltErr(t, dir, "opal",
			"-size", "small", "-scale", "0.1", "-servers", "2", "-steps", "4",
			"-checkpoint-every", "-1")
		if !strings.Contains(out, "must be non-negative") {
			t.Errorf("negative -checkpoint-every not diagnosed:\n%s", out)
		}
	})
	t.Run("opal-http-address-taken", func(t *testing.T) {
		// Occupy a port, then point -http at it: the failure must name
		// the flag and the address, not just echo a bare listen error.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		out := runBuiltErr(t, dir, "opal",
			"-size", "small", "-scale", "0.1", "-servers", "2", "-steps", "2",
			"-http", ln.Addr().String())
		for _, want := range []string{"cannot serve -http", ln.Addr().String()} {
			if !strings.Contains(out, want) {
				t.Errorf("bound -http address not diagnosed (missing %q):\n%s", want, out)
			}
		}
	})
	t.Run("scenario", func(t *testing.T) {
		out := runBuilt(t, dir, "scenario", "validate", "scenarios")
		if !strings.Contains(out, "scenario(s) valid") {
			t.Errorf("scenario validate output missing summary:\n%s", out)
		}
		out = runBuilt(t, dir, "scenario", "run", "-seeds", "2",
			filepath.Join("scenarios", "kill-sweep.yaml"))
		if !strings.Contains(out, "PASS: 1 scenario(s) x 2 seed(s)") {
			t.Errorf("scenario run summary missing:\n%s", out)
		}
		out = runBuiltErr(t, dir, "scenario", "run",
			filepath.Join("internal", "scenario", "testdata", "invalid", "rank-out-of-range.yaml"))
		if !strings.Contains(out, "rank") {
			t.Errorf("invalid scenario not diagnosed:\n%s", out)
		}
	})
	t.Run("opal-oracle", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "run.jsonl")
		out := runBuilt(t, dir, "opal",
			"-size", "small", "-scale", "0.1", "-servers", "3", "-steps", "8",
			"-oracle", "-oracle-window", "2", "-modelz",
			"-journal", journal, "-journal-max-bytes", "65536")
		for _, want := range []string{"model oracle:", "0 anomaly(ies)", "oracle: last window", "predicted [s]"} {
			if !strings.Contains(out, want) {
				t.Errorf("opal -oracle output missing %q:\n%s", want, out)
			}
		}
		data, err := os.ReadFile(journal)
		if err != nil {
			t.Fatalf("journal not written: %v", err)
		}
		for _, want := range []string{`"type":"oracle_start"`, `"type":"oracle_finish"`} {
			if !strings.Contains(string(data), want) {
				t.Errorf("journal missing %s", want)
			}
		}
	})
	t.Run("perfdiff", func(t *testing.T) {
		base := filepath.Join("cmd", "perfdiff", "testdata", "base.json")
		bad := filepath.Join("cmd", "perfdiff", "testdata", "regressed.json")
		out := runBuilt(t, dir, "perfdiff", base, base)
		if !strings.Contains(out, "perfdiff: ok") {
			t.Errorf("self-diff not ok:\n%s", out)
		}
		cmd := exec.Command(filepath.Join(dir, "perfdiff"), base, bad)
		outB, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("injected regression exited zero:\n%s", outB)
		}
		if !strings.Contains(string(outB), "REGRESSION") {
			t.Errorf("regression not reported:\n%s", outB)
		}
	})
	t.Run("calibrate", func(t *testing.T) {
		out := runBuilt(t, dir, "calibrate", "-scale", "0.08", "-steps", "3")
		for _, want := range []string{"fitted model parameters", "MAPE", "a1"} {
			if !strings.Contains(out, want) {
				t.Errorf("calibrate output missing %q", want)
			}
		}
	})
	t.Run("predict", func(t *testing.T) {
		out := runBuilt(t, dir, "predict", "-size", "medium", "-cost")
		for _, want := range []string{"speed-up", "cost-effectiveness", "Myrinet"} {
			if !strings.Contains(out, want) {
				t.Errorf("predict output missing %q", want)
			}
		}
	})
	t.Run("microbench", func(t *testing.T) {
		out := runBuilt(t, dir, "microbench", "-table", "1")
		if !strings.Contains(out, "Table 1") || !strings.Contains(out, "adjusted") {
			t.Error("microbench table 1 missing")
		}
	})
	t.Run("sciddlegen", func(t *testing.T) {
		out := runBuilt(t, dir, "sciddlegen", "-pkg", "demo", "internal/md/opal.idl")
		if !strings.Contains(out, "type OpalHandler interface") {
			t.Error("sciddlegen output missing handler interface")
		}
	})
	t.Run("figures-subset", func(t *testing.T) {
		outDir := t.TempDir()
		runBuilt(t, dir, "figures", "-scale", "0.08", "-steps", "2",
			"-maxp", "3", "-only", "fig3,space,table2", "-out", outDir)
		for _, f := range []string{"fig3_parameter_space.txt", "sec26_space.txt", "table2_communication.txt"} {
			if _, err := os.Stat(filepath.Join(outDir, f)); err != nil {
				t.Errorf("missing %s: %v", f, err)
			}
		}
	})
}

// traceEvents returns the events of a chrome trace file as the writer
// encoded them, in sorted order.
func traceEvents(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	events := make([]string, len(doc.TraceEvents))
	for i, ev := range doc.TraceEvents {
		events[i] = string(ev)
	}
	sort.Strings(events)
	return events
}

func TestExampleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		path string
		args []string
		want string
	}{
		{"./examples/quickstart", nil, "virtual J90 time"},
		{"./examples/antennapedia", []string{"-scale", "0.08"}, "idle spikes"},
		{"./examples/middleware", nil, "accounting overhead"},
		{"./examples/tcpcluster", nil, "remote servers"},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.TrimPrefix(c.path, "./examples/"), func(t *testing.T) {
			t.Parallel()
			args := append([]string{"run", c.path}, c.args...)
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				t.Fatalf("go run %s: %v\n%s", c.path, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("%s output missing %q:\n%s", c.path, c.want, out)
			}
		})
	}
}
