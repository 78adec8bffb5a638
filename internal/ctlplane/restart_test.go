package ctlplane

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/harness"
)

// submitAndWait drives one spec to StateDone and returns its snapshot.
func submitAndWait(t *testing.T, s *Server, tenant string, spec JobSpec) entrySnapshot {
	t.Helper()
	jobID, _, err := s.Submit(tenant, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	e, ok := s.store.get(jobID)
	if !ok {
		t.Fatalf("job %s vanished", jobID)
	}
	select {
	case <-e.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never reached a terminal state", jobID)
	}
	snap, _ := s.store.snapshotOf(jobID)
	return snap
}

// The restart acceptance, in-process: submit -> complete -> stop the
// server -> boot a fresh one on the same archive dir -> the duplicate
// submission is served from the persisted result store with bit-identical
// energies, no re-execution, and Completions still 1.
func TestResultStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 2, QueueCap: 16,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 16,
	}
	spec := JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 6, UpdateEvery: 2}

	a1, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Archive = a1
	s1 := newTestServer(t, cfg, nil)
	snap1 := submitAndWait(t, s1, "acme", spec)
	if snap1.State != StateDone || snap1.Completions != 1 {
		t.Fatalf("first life: %+v", snap1)
	}
	if len(snap1.Result.Energies) != 6 {
		t.Fatalf("energies = %d entries, want 6", len(snap1.Result.Energies))
	}
	s1.Drain()
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same archive directory, fresh process state.
	a2, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Archive = a2
	s2 := newTestServer(t, cfg, func(p *pool, j *job, attempt int) (*JobResult, error) {
		t.Errorf("restored spec re-executed (job %s)", j.ID)
		return nil, fmt.Errorf("must not run")
	})
	jobID, coalesced, err := s2.Submit("acme", spec)
	if err != nil {
		t.Fatalf("resubmit after restart: %v", err)
	}
	if !coalesced {
		t.Fatal("duplicate submission after restart did not coalesce onto the restored result")
	}
	snap2, ok := s2.store.snapshotOf(jobID)
	if !ok {
		t.Fatal("restored job not found")
	}
	if snap2.State != StateDone {
		t.Fatalf("restored state = %s, want done", snap2.State)
	}
	if snap2.Completions != 1 {
		t.Fatalf("Completions = %d across the restart, want 1", snap2.Completions)
	}
	if len(snap2.Result.Energies) != len(snap1.Result.Energies) {
		t.Fatalf("restored energies length %d != %d", len(snap2.Result.Energies), len(snap1.Result.Energies))
	}
	for i := range snap1.Result.Energies {
		if snap2.Result.Energies[i] != snap1.Result.Energies[i] {
			t.Fatalf("energy[%d] differs across restart: %v != %v — not bit-identical",
				i, snap2.Result.Energies[i], snap1.Result.Energies[i])
		}
	}
	// The run summary the harness sink archived carries the same energies
	// hash as a re-hash of the served result — warehouse and API agree.
	sums := a2.Summaries(archive.Query{Spec: func() string {
		c, _ := spec.Canonicalize(Limits{})
		rs, _ := c.runSpec(newSystemCache())
		return harness.SpecHashOf(rs)
	}()})
	if len(sums) != 1 {
		t.Fatalf("archived summaries = %d, want 1", len(sums))
	}
	if want := archive.HashFloats(snap1.Result.Energies); sums[0].EnergiesHash != want {
		t.Fatalf("summary energies hash %s != result hash %s", sums[0].EnergiesHash, want)
	}
	if sums[0].Tenant != "acme" {
		t.Fatalf("summary tenant = %q", sums[0].Tenant)
	}
}

// A failed cycle must NOT be restored as servable: only StateDone results
// persist, so a resubmission after restart re-executes.
func TestRestartDoesNotRestoreFailures(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 1, QueueCap: 8, MaxAttempts: 1,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 8,
		BreakerThreshold: -1,
	}
	spec := JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 4, UpdateEvery: 2, Seed: 7}

	a1, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Archive = a1
	s1 := newTestServer(t, cfg, func(p *pool, j *job, attempt int) (*JobResult, error) {
		return nil, fmt.Errorf("injected failure")
	})
	snap := submitAndWait(t, s1, "t", spec)
	if snap.State != StateFailed {
		t.Fatalf("first life state = %s, want failed", snap.State)
	}
	s1.Drain()
	a1.Close()

	a2, err := archive.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Archive = a2
	ran := false
	s2 := newTestServer(t, cfg, func(p *pool, j *job, attempt int) (*JobResult, error) {
		ran = true
		return &JobResult{Steps: 4, Energies: []float64{1, 2, 3, 4}}, nil
	})
	snap2 := submitAndWait(t, s2, "t", spec)
	if !ran {
		t.Fatal("failed spec served from archive instead of re-executing")
	}
	if snap2.State != StateDone {
		t.Fatalf("second life state = %s", snap2.State)
	}
}

// Per-tenant SLO instruments appear on /metrics with the tenant label:
// admitted/completed counters and the queue-wait histogram for the
// tenants that ran, a shed counter for the tenant that was rate-limited.
func TestPerTenantMetricsOnServer(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 2, QueueCap: 16,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 16,
	}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submitAndWait(t, s, "tenant-a", JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 4, UpdateEvery: 2, Seed: 101})
	submitAndWait(t, s, "tenant-b", JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 4, UpdateEvery: 2, Seed: 102})

	// A near-zero-rate tenant gets the bucket's single initial token —
	// spent on a submission that coalesces onto tenant-a's cached result —
	// and the next submission is rate-limited and shed.
	s.runQ = newQuotas(1e-9, 1, 0, nil)
	specA := JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 4, UpdateEvery: 2, Seed: 101}
	if _, coalesced, err := s.Submit("tenant-shed", specA); err != nil || !coalesced {
		t.Fatalf("first tenant-shed submission: coalesced=%v err=%v", coalesced, err)
	}
	if _, _, err := s.Submit("tenant-shed", specA); err == nil {
		t.Fatal("rate-exhausted tenant was admitted")
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	for _, want := range []string{
		`opal_ctl_tenant_admitted_total{tenant="tenant-a"} 1`,
		`opal_ctl_tenant_admitted_total{tenant="tenant-b"} 1`,
		`opal_ctl_tenant_completed_total{tenant="tenant-a"} 1`,
		`opal_ctl_tenant_completed_total{tenant="tenant-b"} 1`,
		`opal_ctl_tenant_shed_total{tenant="tenant-shed"} 1`,
		`opal_ctl_queue_wait_seconds_count{tenant="tenant-a"} 1`,
		`opal_ctl_queue_wait_seconds_bucket{tenant="tenant-a",le="+Inf"} 1`,
		`opal_ctl_tenant_job_seconds_count{tenant="tenant-b"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", grepLines(body, "opal_ctl_tenant", "opal_ctl_queue_wait"))
	}
}

func grepLines(body string, subs ...string) string {
	var sb strings.Builder
	for _, line := range strings.Split(body, "\n") {
		for _, sub := range subs {
			if strings.Contains(line, sub) {
				sb.WriteString(line)
				sb.WriteByte('\n')
				break
			}
		}
	}
	return sb.String()
}
