package ctlplane

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"opalperf/internal/harness"
)

// Job states, as exposed over the API.
const (
	StateQueued       = "queued"
	StateRunning      = "running"
	StateDone         = "done"
	StateFailed       = "failed"
	StateCheckpointed = "checkpointed"
)

// JobResult is the measured outcome served back to clients.  Energies is
// the full per-step total-energy trajectory: the determinism witness —
// two executions of one canonical spec must match it bit for bit.
type JobResult struct {
	Energies   []float64 `json:"energies"`
	FinalEvdw  float64   `json:"final_evdw"`
	FinalEcoul float64   `json:"final_ecoul"`
	Wall       float64   `json:"wall_seconds"`
	Steps      int       `json:"steps"`
	Par        float64   `json:"par_seconds"`
	Seq        float64   `json:"seq_seconds"`
	Comm       float64   `json:"comm_seconds"`
	Sync       float64   `json:"sync_seconds"`
	Idle       float64   `json:"idle_seconds"`
	Respawns   int       `json:"respawns"`
	Recoveries int       `json:"recoveries"`
}

// entry is one canonical run in the store: possibly many submitted job
// IDs (coalesced identical submissions, the "single-flight" shape), at
// most one execution in flight, at most one completion ever.  Its
// outcome, a result or an error, is the spec's cached answer.
type entry struct {
	Hash string
	Spec JobSpec // canonical, tenant cleared

	State       string
	Result      *JobResult
	Err         error // with StateFailed
	Attempts    int   // execution attempts, crashes included
	Completions int   // successful executions; the no-double-execution invariant pins this at <= 1

	CheckpointStep int    // with StateCheckpointed
	Checkpoint     []byte // serialized md checkpoint captured on drain

	// reservations maps job ID -> tenant whose quota slot is held until
	// this entry reaches a terminal state.
	reservations map[string]string
	jobIDs       []string
	done         chan struct{} // closed on every terminal transition
}

func (e *entry) terminal() bool {
	switch e.State {
	case StateDone, StateFailed, StateCheckpointed:
		return true
	}
	return false
}

// store is the deduplicating result store.  All state transitions happen
// under one mutex; the submit path runs its enqueue attempt under that
// same mutex so "entry exists" and "job queued" can never disagree.
type store struct {
	mu     sync.Mutex
	byHash map[string]*entry
	byJob  map[string]*entry
	nextID int
	// onRelease returns tenant quota slots; installed by the server.
	onRelease func(tenant string)
}

func newStore() *store {
	return &store{byHash: map[string]*entry{}, byJob: map[string]*entry{}}
}

// submit registers a submission of canonical spec c for tenant.  When no
// live execution or cached answer exists (fresh hash, or the last
// execution was stopped by the host: drained to a checkpoint or past its
// wall-clock deadline), enqueue is invoked under the store lock with the
// job to run; a false return aborts the submission (queue full) without
// leaving a half-registered entry behind.  The returned coalesced flag
// reports that the submission attached to an existing execution or
// cached result or failure.
func (s *store) submit(c JobSpec, hash, tenant string, enqueue func(*job) bool) (jobID string, e *entry, coalesced bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e = s.byHash[hash]
	fresh := e == nil
	// The kernel is deterministic, so a failure is as much the spec's
	// answer as a result is; only a stop the host imposed (a drain, a
	// wall-clock deadline) says nothing about the spec and runs it again.
	needsRun := fresh || e.State == StateCheckpointed ||
		e.State == StateFailed && errors.Is(e.Err, harness.ErrDeadline)
	s.nextID++
	jobID = fmt.Sprintf("job-%06d", s.nextID)
	if needsRun {
		cand := e
		if fresh {
			cand = &entry{
				Hash: hash, Spec: c,
				reservations: map[string]string{},
			}
		}
		j := &job{ID: jobID, Hash: hash, Tenant: tenant, Spec: c, entry: cand}
		if !enqueue(j) {
			// Shed atomically: nothing was registered, the terminal
			// entry (if any) is untouched.
			return "", nil, false, &shedError{Reason: "queue_full", RetryAfter: time.Second}
		}
		e = cand
		e.State = StateQueued
		e.Err = nil
		e.done = make(chan struct{})
		if fresh {
			s.byHash[hash] = e
		}
	}
	e.jobIDs = append(e.jobIDs, jobID)
	s.byJob[jobID] = e
	if e.terminal() {
		// Coalesced onto a finished run: serve the cached result or
		// failure, no quota slot to hold.
		return jobID, e, true, nil
	}
	e.reservations[jobID] = tenant
	return jobID, e, !needsRun, nil
}

// get looks a job ID up.
func (s *store) get(jobID string) (*entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byJob[jobID]
	return e, ok
}

// snapshot renders an entry's current state for the API while holding
// the lock, so readers never observe a half-applied transition.
type entrySnapshot struct {
	Hash           string
	Spec           JobSpec
	State          string
	Result         *JobResult
	Err            string
	Attempts       int
	Completions    int
	CheckpointStep int
	HasCheckpoint  bool
}

func (s *store) snapshotOf(jobID string) (entrySnapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byJob[jobID]
	if !ok {
		return entrySnapshot{}, false
	}
	snap := entrySnapshot{
		Hash: e.Hash, Spec: e.Spec, State: e.State, Result: e.Result,
		Attempts: e.Attempts, Completions: e.Completions,
		CheckpointStep: e.CheckpointStep, HasCheckpoint: e.Checkpoint != nil,
	}
	if e.Err != nil {
		snap.Err = e.Err.Error()
	}
	return snap, true
}

// markRunning counts one execution attempt starting and returns its
// 1-based attempt number.
func (s *store) markRunning(e *entry) int {
	s.mu.Lock()
	e.State = StateRunning
	e.Attempts++
	n := e.Attempts
	s.mu.Unlock()
	return n
}

// markDone records the one successful completion and releases every
// reservation.  A second completion for the same cycle would break the
// no-double-execution invariant; the counter exists so tests can assert
// it never happens.
func (s *store) markDone(e *entry, res *JobResult) {
	s.mu.Lock()
	e.State = StateDone
	e.Result = res
	e.Completions++
	s.finishLocked(e)
	s.mu.Unlock()
}

// markFailed records the execution's error as the entry's answer and
// releases every reservation.
func (s *store) markFailed(e *entry, err error) {
	s.mu.Lock()
	e.State = StateFailed
	e.Err = err
	s.finishLocked(e)
	s.mu.Unlock()
}

// markCheckpointed ends a drained job: its state survives as a resumable
// checkpoint instead of a result.
func (s *store) markCheckpointed(e *entry, ckpt []byte, step int) {
	s.mu.Lock()
	e.State = StateCheckpointed
	e.Checkpoint = ckpt
	e.CheckpointStep = step
	s.finishLocked(e)
	s.mu.Unlock()
}

// finishLocked closes the cycle's done channel and returns quota slots.
func (s *store) finishLocked(e *entry) {
	for _, tenant := range e.reservations {
		if s.onRelease != nil {
			s.onRelease(tenant)
		}
	}
	e.reservations = map[string]string{}
	select {
	case <-e.done:
	default:
		close(e.done)
	}
}
