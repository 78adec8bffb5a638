package ctlplane

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"opalperf/internal/md"
)

// chaosSpec is the real run the chaos sweep executes: small enough that
// a seed's whole job set completes in tens of milliseconds, parallel and
// boundary-rich enough (UpdateEvery 2) to exercise checkpoint capture.
func chaosSpec(i int) JobSpec {
	return JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 6, UpdateEvery: 2, Seed: int64(i)}
}

// baselineEnergies runs each chaos spec once on an undisturbed pool and
// returns the per-spec energy trajectories — the bit-identity reference
// the chaos runs must reproduce.
func baselineEnergies(t *testing.T, n int) [][]float64 {
	t.Helper()
	s := newTestServer(t, Config{
		Workers: 2, QueueCap: 64,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 64,
	}, nil)
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id, _, err := s.Submit("baseline", chaosSpec(i))
		if err != nil {
			t.Fatalf("baseline submit %d: %v", i, err)
		}
		ids[i] = id
	}
	out := make([][]float64, n)
	for i, id := range ids {
		waitTerminal(t, s, id)
		snap, _ := s.store.snapshotOf(id)
		if snap.State != StateDone || snap.Result == nil {
			t.Fatalf("baseline job %d: %+v", i, snap)
		}
		out[i] = snap.Result.Energies
	}
	return out
}

// TestServiceChaos is the service-level chaos sweep: across 25 seeds,
// worker goroutines are killed mid-job (runtime.Goexit — defers run, no
// panic value, exactly a dying worker) and the invariants must hold:
//
//   - no job is lost: every accepted job reaches done
//   - no job is double-executed: each entry completes exactly once
//   - results are bit-identical to an undisturbed execution
//   - drain still exits cleanly afterwards
func TestServiceChaos(t *testing.T) {
	const seeds, jobs = 25, 6
	baseline := baselineEnergies(t, jobs)
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(time.Duration(seed).String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			s := newTestServer(t, Config{
				Workers: 3, QueueCap: 64,
				TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 64,
			}, nil)
			// Kill roughly half the jobs on their first attempt, at a
			// random step boundary inside the run; later attempts run
			// undisturbed so every job can finish.  The plan is keyed by
			// canonical hash and frozen before any submission, so the
			// hook never races the submit loop.
			kills := map[string]int{}
			for i := 0; i < jobs; i++ {
				if rng.Intn(2) == 0 {
					c, err := chaosSpec(i).Canonicalize(Limits{})
					if err != nil {
						t.Fatal(err)
					}
					kills[c.Hash()] = 1 + rng.Intn(6)
				}
			}
			s.pool.killAt = func(hash string, attempt int) int {
				if attempt != 1 {
					return -1
				}
				if step, ok := kills[hash]; ok {
					return step
				}
				return -1
			}
			crashesBefore := mWorkerCrashes.Value()
			ids := make([]string, jobs)
			for i := 0; i < jobs; i++ {
				id, coalesced, err := s.Submit("chaos", chaosSpec(i))
				if err != nil || coalesced {
					t.Fatalf("submit %d: id=%s coalesced=%v err=%v", i, id, coalesced, err)
				}
				ids[i] = id
			}
			for i, id := range ids {
				waitTerminal(t, s, id)
				snap, _ := s.store.snapshotOf(id)
				if snap.State != StateDone {
					t.Fatalf("seed %d job %d lost: state=%q err=%q", seed, i, snap.State, snap.Err)
				}
				if snap.Completions != 1 {
					t.Fatalf("seed %d job %d completed %d times, want exactly 1", seed, i, snap.Completions)
				}
				if len(snap.Result.Energies) != len(baseline[i]) {
					t.Fatalf("seed %d job %d: %d energies, baseline %d",
						seed, i, len(snap.Result.Energies), len(baseline[i]))
				}
				for k, e := range snap.Result.Energies {
					if e != baseline[i][k] {
						t.Fatalf("seed %d job %d step %d: energy %x differs from baseline %x — crash recovery broke determinism",
							seed, i, k, e, baseline[i][k])
					}
				}
			}
			if len(kills) > 0 {
				if after := mWorkerCrashes.Value(); after == crashesBefore {
					t.Fatalf("seed %d scheduled %d kills but no worker crashed — chaos hook dead", seed, len(kills))
				}
			}
			// Drain must still terminate cleanly after the carnage
			// (the cleanup runs it; a hang fails the test by timeout).
		})
	}
}

// TestDrainCheckpointsInFlight pins the graceful-drain contract: a drain
// during a long run stops it at the next pair-list boundary with a
// parseable, boundary-aligned checkpoint, and queued jobs also end
// terminal instead of being dropped.
func TestDrainCheckpointsInFlight(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 64,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 64,
	}, nil)
	long := JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 5000, UpdateEvery: 2}
	id, _, err := s.Submit("a", long)
	if err != nil {
		t.Fatal(err)
	}
	// A queued sibling: it starts after the drain begins and must
	// checkpoint at its first boundary rather than run to completion.
	queued := JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 5000, UpdateEvery: 2, Seed: 9}
	qid, _, err := s.Submit("a", queued)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first job is actually executing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := s.store.snapshotOf(id)
		if snap.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain()
	for _, jid := range []string{id, qid} {
		snap, ok := s.store.snapshotOf(jid)
		if !ok {
			t.Fatalf("job %s vanished during drain", jid)
		}
		switch snap.State {
		case StateDone:
			// Finished before the drain reached it: also acceptable.
		case StateCheckpointed:
			if !snap.HasCheckpoint {
				t.Fatalf("job %s checkpointed without checkpoint bytes", jid)
			}
			if snap.CheckpointStep <= 0 || snap.CheckpointStep%2 != 0 {
				t.Fatalf("job %s checkpoint step %d not a positive pair-list boundary", jid, snap.CheckpointStep)
			}
			e, _ := s.store.get(jid)
			s.store.mu.Lock()
			raw := append([]byte(nil), e.Checkpoint...)
			s.store.mu.Unlock()
			cp, err := md.ReadCheckpoint(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("job %s checkpoint unreadable: %v", jid, err)
			}
			if cp.Step != snap.CheckpointStep {
				t.Fatalf("job %s checkpoint step mismatch: %d vs %d", jid, cp.Step, snap.CheckpointStep)
			}
		default:
			t.Fatalf("job %s state after drain = %q, want done or checkpointed", jid, snap.State)
		}
	}
	// Submissions after the drain are refused as draining.
	if _, _, err := s.Submit("a", chaosSpec(0)); err == nil {
		t.Fatal("post-drain submit must shed")
	}
	// A drained checkpointed spec accepts a resubmission on a fresh
	// server — the checkpointed cycle is terminal, not wedged.
	s2 := newTestServer(t, Config{
		Workers: 1, QueueCap: 8,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 8,
	}, nil)
	id2, coalesced, err := s2.Submit("a", chaosSpec(3))
	if err != nil || coalesced {
		t.Fatalf("fresh server submit: %v", err)
	}
	waitTerminal(t, s2, id2)
}

// TestJobDeadline pins the per-job deadline: a run that cannot finish in
// time fails after its one attempt with the deadline cause recorded.
func TestJobDeadline(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 8,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 8,
		JobDeadline: time.Nanosecond,
	}, nil)
	id, _, err := s.Submit("a", JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 2000, UpdateEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, id)
	snap, _ := s.store.snapshotOf(id)
	if snap.State != StateFailed {
		t.Fatalf("deadline job state = %q, want failed", snap.State)
	}
	if snap.Attempts != 1 {
		t.Fatalf("deadline job ran %d attempts, want 1", snap.Attempts)
	}
}
