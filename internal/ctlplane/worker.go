package ctlplane

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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
// goroutines drain the queue, each job runs with a deadline, panic
// isolation and bounded retry-with-jittered-backoff, and a worker that
// dies mid-job (panic escaping a run, or a chaos kill) is respawned by
// its own exit hook after re-enqueueing the job it held — an accepted
// job is never lost and, because the store admits one completion per
// cycle, never double-counted.
type pool struct {
	cfg     Config
	q       *queue
	store   *store
	brk     *breaker
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
	// sleep is swapped in tests so backoff is instant.
	sleep func(time.Duration)
}

func newPool(cfg Config, q *queue, st *store, brk *breaker, systems *systemCache) *pool {
	return &pool{
		cfg: cfg, q: q, store: st, brk: brk, systems: systems,
		arch:    cfg.Archive,
		current: map[int]*job{},
		runner:  runAttempt,
		sleep:   time.Sleep,
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

// runJob drives one job through its retry budget to a terminal state.
func (p *pool) runJob(j *job) {
	e := j.entry
	for {
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
			p.brk.success(j.Hash)
			p.store.markDone(e, res)
			mDone.Add(1)
			mTenantDone.With(j.Tenant).Add(1)
			p.archiveResult(j, e, j.waitSecs, runSecs)
			telemetry.Emit("ctl_job_done", telemetry.F{
				"job": j.ID, "hash": j.Hash, "attempt": attempt, "steps": res.Steps,
			})
			return
		case errors.Is(err, errDrainStop):
			// markCheckpointed already ran from the sink wrapper.
			mCheckpointed.Add(1)
			telemetry.Emit("ctl_job_checkpointed", telemetry.F{
				"job": j.ID, "hash": j.Hash, "step": e.CheckpointStep,
			})
			return
		case errors.Is(err, harness.ErrDeadline):
			p.brk.failure(j.Hash)
			p.store.markFailed(e, err, StateFailed)
			mFailed.Add(1)
			telemetry.Emit("ctl_job_failed", telemetry.F{
				"job": j.ID, "hash": j.Hash, "error": "deadline",
			})
			return
		default:
			p.brk.failure(j.Hash)
			if attempt >= p.cfg.MaxAttempts {
				p.store.markFailed(e, err, StateFailed)
				mFailed.Add(1)
				telemetry.Emit("ctl_job_failed", telemetry.F{
					"job": j.ID, "hash": j.Hash, "error": err.Error(),
				})
				return
			}
			mRetries.Add(1)
			mTenantRetries.With(j.Tenant).Add(1)
			telemetry.Emit("ctl_job_retry", telemetry.F{
				"job": j.ID, "hash": j.Hash, "attempt": attempt, "error": err.Error(),
			})
			p.sleep(retryDelay(j.Hash, attempt, p.cfg.RetryBase, p.cfg.RetryCap))
		}
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
	if p.arch != nil {
		// The summary carries the run identity (harness.SpecHashOf), not
		// the dedup key: the watchdog and cross-run percentiles compare a
		// job with the identical opal run and scenario seed.
		spec.Archive = &archive.Sink{
			Archive: p.arch, Run: j.ID, Tenant: j.Tenant,
			Label: j.Spec.Platform + "/" + j.Spec.Size,
		}
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

// retryDelay is the full-jitter backoff between attempts: uniform in
// (0, min(cap, base*2^attempt)], deterministically seeded by the spec
// hash and attempt number so schedules are reproducible in tests yet
// decorrelated across jobs.
func retryDelay(hash string, attempt int, base, max time.Duration) time.Duration {
	ceil := base << uint(attempt-1)
	if ceil > max || ceil <= 0 {
		ceil = max
	}
	var seed int64
	for _, b := range []byte(hash) {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed + int64(attempt)))
	return time.Duration(rng.Int63n(int64(ceil))) + 1
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
