package ctlplane

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"opalperf/internal/archive"
	"opalperf/internal/harness"
	"opalperf/internal/md"
	"opalperf/internal/telemetry"
)

// job is one accepted execution request travelling through the queue.
type job struct {
	ID     string
	Hash   string
	Tenant string
	Spec   JobSpec // canonical
	entry  *entry
	// EnqueuedAt is stamped at admission; the pop side observes the
	// difference as the tenant's queue-wait.  A crash requeue keeps the
	// original stamp — the tenant's wait did not restart.
	EnqueuedAt time.Time
	// waitSecs is the observed queue wait, recorded at pop for the
	// archived result record.
	waitSecs float64
}

// errDrainStop is the cancellation cause of a drained job whose state has
// been checkpointed; errWorkerKill is the cause the chaos hook uses to
// stop a run before crashing its worker.
var (
	errDrainStop  = errors.New("ctlplane: draining, state checkpointed")
	errWorkerKill = errors.New("ctlplane: worker killed (chaos)")
)

// pool is the supervised worker pool: a fixed number of worker
// goroutines drain the queue, each job runs once with a deadline and
// panic isolation, and a worker that dies mid-job (panic escaping a run,
// or a chaos kill) is respawned by its own exit hook after re-enqueueing
// the job it held — an accepted job is never lost and, because the store
// admits one completion per cycle, never double-counted.
type pool struct {
	cfg     Config
	q       *queue
	store   *store
	systems *systemCache

	draining atomic.Bool
	wg       sync.WaitGroup

	mu      sync.Mutex
	current map[int]*job // worker id -> in-flight job (crash recovery)

	// arch, when non-nil, receives result records for completed jobs and
	// run summaries from the harness sink (Config.Archive).
	arch *archive.Archive

	// runner executes one attempt; tests swap it to inject failures.
	runner func(p *pool, j *job, attempt int) (*JobResult, error)
	// killAt, when non-nil, is the service-chaos hook: a non-negative
	// return for (spec hash, attempt) makes the executing worker
	// goroutine die at that step boundary, exactly like an escaped panic
	// would.  Keyed by the canonical hash so tests can plan kills before
	// job IDs exist.
	killAt func(hash string, attempt int) int
	// amend, when non-nil, edits each attempt's run spec just before it
	// runs — the hook tests arm run-level faults the wire form cannot
	// state (kill schedules, respawn budgets) with.
	amend func(*harness.RunSpec)
}

func newPool(cfg Config, q *queue, st *store, systems *systemCache) *pool {
	return &pool{
		cfg: cfg, q: q, store: st, systems: systems,
		arch:    cfg.Archive,
		current: map[int]*job{},
		runner:  runAttempt,
	}
}

// start launches the configured number of supervised workers.
func (p *pool) start() {
	for i := 0; i < p.cfg.Workers; i++ {
		p.startWorker(i)
	}
}

// startWorker runs one worker goroutine under the pool supervisor: if
// the goroutine exits abnormally (a panic that escaped job isolation, or
// runtime.Goexit from the chaos hook), its in-flight job is re-enqueued
// and a replacement worker takes its slot.
func (p *pool) startWorker(id int) {
	p.wg.Add(1)
	go func() {
		graceful := false
		defer func() {
			if !graceful {
				p.mu.Lock()
				j := p.current[id]
				delete(p.current, id)
				p.mu.Unlock()
				mWorkerCrashes.Add(1)
				if j != nil {
					telemetry.Emit("ctl_worker_crash", telemetry.F{
						"worker": id, "job": j.ID, "hash": j.Hash,
					})
					p.q.forcePush(j)
				} else {
					telemetry.Emit("ctl_worker_crash", telemetry.F{"worker": id})
				}
				mWorkerRespawns.Add(1)
				telemetry.Emit("ctl_worker_respawn", telemetry.F{"worker": id})
				p.startWorker(id)
			}
			p.wg.Done()
		}()
		p.loop(id)
		graceful = true
	}()
}

// loop drains the queue until it is closed and empty.
func (p *pool) loop(id int) {
	for {
		j, ok := p.q.pop()
		if !ok {
			return
		}
		mQueueDepth.Set(int64(p.q.depth()))
		if !j.EnqueuedAt.IsZero() {
			j.waitSecs = time.Since(j.EnqueuedAt).Seconds()
			mQueueWait.With(j.Tenant).Observe(j.waitSecs)
		}
		p.mu.Lock()
		p.current[id] = j
		p.mu.Unlock()
		p.runJob(j)
		p.mu.Lock()
		delete(p.current, id)
		p.mu.Unlock()
	}
}

// runJob executes the job once and records its outcome.  A failure is
// the spec's answer, not a reason to try again: the kernel is
// deterministic, so a second run would fail the same way.  Only a worker
// crash runs a job twice (the supervisor requeues it, Attempts counts
// both), since the crash indicts the worker, not the spec.
func (p *pool) runJob(j *job) {
	e := j.entry
	attempt := p.store.markRunning(e)
	mJobsRunning.Add(1)
	telemetry.Emit("ctl_job_start", telemetry.F{
		"job": j.ID, "hash": j.Hash, "attempt": attempt,
	})
	t0 := time.Now()
	res, err := p.execute(j, attempt)
	runSecs := time.Since(t0).Seconds()
	mJobSeconds.Observe(runSecs)
	mTenantJobSeconds.With(j.Tenant).Observe(runSecs)
	mJobsRunning.Add(-1)
	switch {
	case err == nil:
		p.store.markDone(e, res)
		mDone.Add(1)
		mTenantDone.With(j.Tenant).Add(1)
		p.archiveResult(j, e, j.waitSecs, runSecs)
		telemetry.Emit("ctl_job_done", telemetry.F{
			"job": j.ID, "hash": j.Hash, "attempt": attempt, "steps": res.Steps,
		})
	case errors.Is(err, errDrainStop):
		// markCheckpointed already ran from the sink wrapper.
		mCheckpointed.Add(1)
		telemetry.Emit("ctl_job_checkpointed", telemetry.F{
			"job": j.ID, "hash": j.Hash, "step": e.CheckpointStep,
		})
	default:
		p.store.markFailed(e, err)
		mFailed.Add(1)
		telemetry.Emit("ctl_job_failed", telemetry.F{
			"job": j.ID, "hash": j.Hash, "error": err.Error(),
		})
	}
}

// execute runs one attempt with panic isolation: a panicking run fails
// the attempt instead of the worker.  The chaos kill hook deliberately
// bypasses this isolation (runtime.Goexit runs defers without a panic
// value), which is what makes it equivalent to a real worker death.
func (p *pool) execute(j *job, attempt int) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ctlplane: worker panic: %v", r)
		}
	}()
	res, err = p.runner(p, j, attempt)
	if err != nil && errors.Is(err, errWorkerKill) {
		// The run was stopped cooperatively at a step boundary; now die
		// the way a crashed worker would.
		runtime.Goexit()
	}
	return res, err
}

// runAttempt compiles the job onto the harness and executes it with the
// drain/deadline/chaos hooks armed.
func runAttempt(p *pool, j *job, attempt int) (*JobResult, error) {
	spec, err := j.Spec.runSpec(p.systems)
	if err != nil {
		return nil, err
	}
	// Graceful drain: once the pool is draining, request a checkpoint at
	// the next pair-list update boundary; the cancel poll fires right
	// after the sink has it.  Order matters — the md engines capture the
	// boundary checkpoint before polling Cancel.
	var ckpt struct {
		buf  bytes.Buffer
		step int
		done bool
	}
	spec.Opts.CheckpointAt = func(step int) bool { return p.draining.Load() }
	spec.Opts.CheckpointSink = func(cp *md.Checkpoint) error {
		ckpt.buf.Reset()
		if err := cp.Write(&ckpt.buf); err != nil {
			return err
		}
		ckpt.step = cp.Step
		ckpt.done = true
		return nil
	}
	killStep := -1
	if p.killAt != nil {
		killStep = p.killAt(j.Hash, attempt)
	}
	steps := 0
	spec.Cancel = func() error {
		steps++
		if killStep >= 0 && steps >= killStep {
			return errWorkerKill
		}
		if p.draining.Load() && ckpt.done {
			return errDrainStop
		}
		return nil
	}
	if p.cfg.JobDeadline > 0 {
		spec.Deadline = time.Now().Add(p.cfg.JobDeadline)
	}
	// The job's run reports under the job ID: its journal lines and its
	// archived summary.  Its health stays its own; the daemon's /healthz
	// is the control plane's.
	spec.Scope = &telemetry.Scope{ID: j.ID}
	if p.arch != nil {
		// The summary carries the run identity (harness.SpecHashOf), not
		// the dedup key: the watchdog and cross-run percentiles compare a
		// job with the identical opal run and scenario seed.
		spec.Archive = &archive.Sink{
			Archive: p.arch, Tenant: j.Tenant,
			Label: j.Spec.Platform + "/" + j.Spec.Size,
		}
	}
	if p.amend != nil {
		p.amend(&spec)
	}
	out, err := harness.Run(spec)
	if err != nil {
		if errors.Is(err, errDrainStop) {
			p.store.markCheckpointed(j.entry, append([]byte(nil), ckpt.buf.Bytes()...), ckpt.step)
		}
		return nil, err
	}
	return resultOf(out), nil
}

// resultOf projects a run outcome onto the wire result.
func resultOf(out harness.RunOutcome) *JobResult {
	res := &JobResult{
		Wall:       out.Wall,
		Steps:      len(out.Result.Steps),
		Par:        out.Breakdown.ParComp,
		Seq:        out.Breakdown.SeqComp,
		Comm:       out.Breakdown.Comm,
		Sync:       out.Breakdown.Sync,
		Idle:       out.Breakdown.Idle,
		Respawns:   out.Result.Respawns,
		Recoveries: out.Result.Recoveries,
		Energies:   out.Result.Energies(),
	}
	if n := len(out.Result.Steps); n > 0 {
		last := out.Result.Steps[n-1]
		res.FinalEvdw, res.FinalEcoul = last.EVdw, last.ECoul
	}
	return res
}

// drain stops admission and waits for every accepted job to finish or
// checkpoint: queued jobs still run (they reach their first update
// boundary, checkpoint and stop), in-flight jobs checkpoint at their
// next boundary or complete, then the workers exit.
func (p *pool) drain() {
	p.draining.Store(true)
	p.q.close()
	p.wg.Wait()
}
