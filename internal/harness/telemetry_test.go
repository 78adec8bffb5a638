package harness

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"opalperf/internal/fault"
	"opalperf/internal/telemetry"
)

// Two runs in one process keep their telemetry apart: each run's comm
// matrix is the one it books alone, a run its supervisor degrades leaves
// the other run and the unattached process healthy, and every run-level
// journal line names the run that wrote it.  Both runs number their
// tasks from 0, so shared cells would fold them together.
func TestConcurrentRunsKeepTheirTelemetry(t *testing.T) {
	healthy, degraded := healSpec(), healSpec()
	healthy.Opts.SelfHeal, healthy.Opts.Kills = true, fault.KillSchedule{3: {1}}.Func()
	// The second kill finds the one-respawn budget spent: the fleet degrades.
	degraded.Opts.SelfHeal, degraded.Opts.MaxRespawns = true, 1
	degraded.Opts.Kills = fault.KillSchedule{1: {0}, 2: {0}}.Func()
	specs, ids := []RunSpec{healthy, degraded}, []string{"healthy", "degraded"}
	run := func(i int) (*telemetry.Scope, error) {
		spec := specs[i]
		spec.Scope = &telemetry.Scope{ID: ids[i], Matrix: new(telemetry.Matrix)}
		_, err := Run(spec)
		return spec.Scope, err
	}
	var journal bytes.Buffer
	telemetry.StartJournal(&journal, 0)
	scopes, errs := make([]*telemetry.Scope, len(specs)), make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scopes[i], errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	telemetry.StopJournal()
	for i, sc := range scopes {
		alone, err := run(i)
		if errs[i] != nil || err != nil {
			t.Fatalf("%s run: %v, alone: %v", ids[i], errs[i], err)
		}
		if got, want := sc.Matrix.Snapshot(), alone.Matrix.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s run's matrix differs from the run alone:\nconcurrent %+v\nalone      %+v", ids[i], got, want)
		}
	}
	if state, ok := scopes[0].Health(); !ok || state != "healthy" {
		t.Errorf("healthy run's health = %q %v", state, ok)
	}
	if state, ok := scopes[1].Health(); ok || state != "degraded" {
		t.Errorf("degraded run's health = %q %v", state, ok)
	}
	rec := httptest.NewRecorder()
	telemetry.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"state":"idle"`) {
		t.Errorf("unattached process /healthz = %d %s, want 200 and idle", rec.Code, rec.Body.String())
	}

	// Lines per "run type", past the process's journal_start.
	got := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(journal.String()), "\n")[1:] {
		var ev struct{ Run, Type string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		got[ev.Run+" "+ev.Type]++
	}
	want := map[string]int{"healthy fault_injected": 1, "degraded fault_injected": 2,
		"degraded supervisor_degraded": 1, "degraded recovery": 1}
	for _, id := range ids {
		for _, typ := range []string{"run_start", "supervisor_healing", "respawn", "supervisor_healthy", "comm_matrix", "rank_profile", "run_end"} {
			want[id+" "+typ] = 1
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal lines per run and type = %v, want %v", got, want)
	}
}

// TestMatrixEveryOnBothEngines holds the periodic comm-matrix records to
// the step hook both engines share: every MatrixEvery steps one
// comm_matrix line, and the final one after the run, whether the run is
// serial or parallel.
func TestMatrixEveryOnBothEngines(t *testing.T) {
	for _, servers := range []int{0, 2} {
		spec := healSpec()
		spec.Servers, spec.Steps = servers, 6
		spec.Scope = &telemetry.Scope{ID: "matrix-every", Matrix: new(telemetry.Matrix), MatrixEvery: 2}
		var journal bytes.Buffer
		telemetry.StartJournal(&journal, 0)
		_, err := Run(spec)
		telemetry.StopJournal()
		if err != nil {
			t.Fatalf("servers %d: %v", servers, err)
		}
		if got, want := strings.Count(journal.String(), `"run":"matrix-every","type":"comm_matrix"`), 6/2+1; got != want {
			t.Errorf("servers %d: %d comm_matrix records, want %d", servers, got, want)
		}
	}
}
