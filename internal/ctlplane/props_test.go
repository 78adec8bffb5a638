package ctlplane

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"opalperf/internal/telemetry"
	"opalperf/internal/vm"
)

// newTestServer builds a server whose pool executes runner instead of the
// real harness (nil keeps the real one), with instant backoff sleeps.
// The cleanup drains the pool and unregisters the health supplier.
func newTestServer(t *testing.T, cfg Config, runner func(p *pool, j *job, attempt int) (*JobResult, error)) *Server {
	t.Helper()
	// The acceptance bar is "robust with telemetry enabled", and the
	// chaos assertions read the crash counters — so the plane is armed.
	telemetry.SetEnabled(true)
	s := New(cfg)
	if runner != nil {
		s.pool.runner = runner
	}
	s.pool.sleep = func(time.Duration) {}
	s.Start()
	t.Cleanup(func() {
		s.Drain()
		telemetry.ResetHealth()
	})
	return s
}

// spec returns a distinct valid spec per i (the seed varies the hash).
func testSpec(i int) JobSpec {
	return JobSpec{Size: "small", Scale: 0.02, Servers: 2, Steps: 4, UpdateEvery: 2, Seed: int64(i)}
}

// TestQuotaNeverExceededUnderConcurrency hammers Submit from many
// goroutines across several tenants and checks the admission invariant:
// per tenant, accepted-and-live jobs never exceed the concurrent-job
// quota, and everything over it sheds with a typed reason.
func TestQuotaNeverExceededUnderConcurrency(t *testing.T) {
	const tenants, perTenant, quota = 3, 20, 4
	block := make(chan struct{})
	s := newTestServer(t, Config{
		Workers: 8, QueueCap: 256,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: quota,
	}, func(p *pool, j *job, attempt int) (*JobResult, error) {
		<-block
		return &JobResult{Steps: 1, Energies: []float64{1}}, nil
	})
	var (
		mu       sync.Mutex
		accepted = map[string]int{}
		shed     = map[string]int{}
		wg       sync.WaitGroup
	)
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string, i int) {
				defer wg.Done()
				_, _, err := s.Submit(tenant, testSpec(i))
				mu.Lock()
				defer mu.Unlock()
				if err == nil {
					accepted[tenant]++
				} else {
					var se *shedError
					if !errors.As(err, &se) {
						t.Errorf("unexpected error type: %v", err)
						return
					}
					if se.Reason != "job_quota" {
						t.Errorf("shed reason = %q, want job_quota", se.Reason)
					}
					shed[tenant]++
				}
				// Invariant holds at every instant, not just at the end.
				if got := s.runQ.activeJobs(tenant); got > quota {
					t.Errorf("tenant %s holds %d slots, quota %d", tenant, got, quota)
				}
			}(tenant, i)
		}
	}
	wg.Wait()
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		// The runner blocks, so no slot was released: exactly quota jobs
		// were admitted and the rest shed.
		if accepted[tenant] != quota || shed[tenant] != perTenant-quota {
			t.Errorf("tenant %s: accepted %d shed %d, want %d/%d",
				tenant, accepted[tenant], shed[tenant], quota, perTenant-quota)
		}
		if got := s.runQ.activeJobs(tenant); got != quota {
			t.Errorf("tenant %s activeJobs = %d, want %d", tenant, got, quota)
		}
	}
	close(block)
	s.Drain() // idempotent with the cleanup; all slots must return
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		if got := s.runQ.activeJobs(tenant); got != 0 {
			t.Errorf("tenant %s still holds %d slots after drain", tenant, got)
		}
	}
}

// TestFIFOPerTenant pins the ordering guarantee: with one worker, a
// tenant's jobs execute in submission order.
func TestFIFOPerTenant(t *testing.T) {
	var (
		mu    sync.Mutex
		order []string
	)
	gate := make(chan struct{})
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 64,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 64,
	}, func(p *pool, j *job, attempt int) (*JobResult, error) {
		<-gate // hold the worker until every submission is queued
		mu.Lock()
		order = append(order, j.ID)
		mu.Unlock()
		return &JobResult{Steps: 1, Energies: []float64{1}}, nil
	})
	var want []string
	for i := 0; i < 10; i++ {
		id, coalesced, err := s.Submit("alice", testSpec(i))
		if err != nil || coalesced {
			t.Fatalf("submit %d: id=%s coalesced=%v err=%v", i, id, coalesced, err)
		}
		want = append(want, id)
	}
	close(gate)
	s.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("executed %d jobs, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want submission order %v", order, want)
		}
	}
}

// TestFullQueueShedsFast pins the load-shedding latency: when the queue
// is at capacity the service answers with a typed queue_full shed
// carrying Retry-After, and the rejection is quick — shedding must stay
// cheap exactly when the service is busiest.
func TestFullQueueShedsFast(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 2,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 64,
	}, func(p *pool, j *job, attempt int) (*JobResult, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-block
		return &JobResult{Steps: 1, Energies: []float64{1}}, nil
	})
	// One job on the worker, two in the queue: capacity reached.
	if _, _, err := s.Submit("a", testSpec(0)); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 1; i <= 2; i++ {
		if _, _, err := s.Submit("a", testSpec(i)); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	t0 := time.Now()
	_, _, err := s.Submit("a", testSpec(3))
	lat := time.Since(t0)
	var shed *shedError
	if !errors.As(err, &shed) || shed.Reason != "queue_full" {
		t.Fatalf("submit at capacity = %v, want queue_full", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("queue_full must carry a positive Retry-After, got %v", shed.RetryAfter)
	}
	if lat > 5*time.Millisecond {
		t.Fatalf("shed took %v, want < 5ms", lat)
	}
	// The shed submission must not leak a quota slot.
	if got := s.runQ.activeJobs("a"); got != 3 {
		t.Fatalf("activeJobs after shed = %d, want 3 (the accepted ones)", got)
	}
	close(block)
}

// TestSingleFlightCoalescing checks the dedup store: identical specs
// submitted while one execution is in flight attach to it — one
// execution, many job IDs, everyone gets the same result object.
func TestSingleFlightCoalescing(t *testing.T) {
	var runs int32
	var mu sync.Mutex
	gate := make(chan struct{})
	s := newTestServer(t, Config{
		Workers: 2, QueueCap: 64,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 64,
	}, func(p *pool, j *job, attempt int) (*JobResult, error) {
		<-gate
		mu.Lock()
		runs++
		mu.Unlock()
		return &JobResult{Steps: 1, Energies: []float64{42}}, nil
	})
	first, coalesced, err := s.Submit("a", testSpec(7))
	if err != nil || coalesced {
		t.Fatalf("first submit: %v coalesced=%v", err, coalesced)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		id, coalesced, err := s.Submit("b", testSpec(7))
		if err != nil || !coalesced {
			t.Fatalf("duplicate submit %d: %v coalesced=%v", i, err, coalesced)
		}
		ids = append(ids, id)
	}
	close(gate)
	waitTerminal(t, s, first)
	mu.Lock()
	if runs != 1 {
		t.Fatalf("coalesced submissions ran %d executions, want 1", runs)
	}
	mu.Unlock()
	base, ok := s.store.snapshotOf(first)
	if !ok || base.State != StateDone || base.Completions != 1 {
		t.Fatalf("primary job: %+v", base)
	}
	for _, id := range ids {
		snap, ok := s.store.snapshotOf(id)
		if !ok || snap.State != StateDone {
			t.Fatalf("coalesced job %s: %+v", id, snap)
		}
		if snap.Result != base.Result {
			t.Fatalf("coalesced job %s got a different result object", id)
		}
	}
	// A post-completion duplicate coalesces onto the cached result and
	// holds no quota slot.
	id, coalesced, err := s.Submit("c", testSpec(7))
	if err != nil || !coalesced {
		t.Fatalf("cached submit: %v coalesced=%v", err, coalesced)
	}
	if snap, _ := s.store.snapshotOf(id); snap.State != StateDone {
		t.Fatalf("cached submit state = %q, want done", snap.State)
	}
	if got := s.runQ.activeJobs("c"); got != 0 {
		t.Fatalf("cached hit holds %d slots, want 0", got)
	}
}

// TestRetryThenFailAndQuarantine drives a spec that always fails through
// the retry budget into the breaker, then checks the quarantine sheds
// further submissions until the cooldown expires.
func TestRetryThenFailAndQuarantine(t *testing.T) {
	clock := time.Unix(0, 0)
	var clockMu sync.Mutex
	now := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return clock }
	var attempts int32
	var mu sync.Mutex
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 8, MaxAttempts: 3,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 8,
		BreakerThreshold: 3, BreakerCooldown: 30 * time.Second,
		now: now,
	}, func(p *pool, j *job, attempt int) (*JobResult, error) {
		mu.Lock()
		attempts++
		mu.Unlock()
		return nil, errors.New("boom")
	})
	id, _, err := s.Submit("a", testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, id)
	snap, _ := s.store.snapshotOf(id)
	if snap.State != StateFailed || snap.Attempts != 3 {
		t.Fatalf("failed job: state=%q attempts=%d, want failed/3", snap.State, snap.Attempts)
	}
	mu.Lock()
	if attempts != 3 {
		t.Fatalf("runner ran %d times, want MaxAttempts=3", attempts)
	}
	mu.Unlock()
	// Three consecutive failures tripped the breaker: the same spec is
	// quarantined, a different spec is not.
	var shed *shedError
	if _, _, err := s.Submit("a", testSpec(1)); !errors.As(err, &shed) || shed.Reason != "quarantined" {
		t.Fatalf("quarantined submit = %v, want quarantined", err)
	}
	if _, _, err := s.Submit("a", testSpec(2)); err != nil {
		t.Fatalf("unrelated spec must pass the breaker: %v", err)
	}
	// After the cooldown the probe goes through again.
	clockMu.Lock()
	clock = clock.Add(31 * time.Second)
	clockMu.Unlock()
	if _, _, err := s.Submit("a", testSpec(1)); err != nil {
		t.Fatalf("post-cooldown probe: %v", err)
	}
}

// waitTerminal blocks until jobID's entry reaches a terminal state.
func waitTerminal(t *testing.T, s *Server, jobID string) {
	t.Helper()
	e, ok := s.store.get(jobID)
	if !ok {
		t.Fatalf("unknown job %s", jobID)
	}
	s.store.mu.Lock()
	done := e.done
	s.store.mu.Unlock()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", jobID)
	}
}

// TestPanicIsolation: a panicking run fails the attempt, not the worker —
// the same worker then completes the next job.
func TestPanicIsolation(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 8, MaxAttempts: 2,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 8,
	}, func(p *pool, j *job, attempt int) (*JobResult, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			panic("kaboom")
		}
		return &JobResult{Steps: 1, Energies: []float64{1}}, nil
	})
	crashesBefore := mWorkerCrashes.Value()
	id, _, err := s.Submit("a", testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, id)
	snap, _ := s.store.snapshotOf(id)
	if snap.State != StateDone || snap.Completions != 1 {
		t.Fatalf("after panic retry: %+v", snap)
	}
	// A panic inside a run is absorbed by job isolation: it costs a
	// retry, never a worker.
	if after := mWorkerCrashes.Value(); after != crashesBefore {
		t.Fatalf("panic leaked past job isolation: worker crashes %d -> %d", crashesBefore, after)
	}
}

// TestPanicIsolationSimulatedTask: the panic that job isolation has to
// absorb in practice does not come from the runner's own frame but from a
// simulated task inside the DES kernel.  It must reach execute's recover
// through Kernel.Run, fail that one attempt as a worker panic, and leave
// the worker alive for the next job.
func TestPanicIsolationSimulatedTask(t *testing.T) {
	bad := testSpec(1)
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 8, MaxAttempts: 1,
		TenantRate: 1e6, TenantBurst: 1e6, TenantJobs: 8,
	}, func(p *pool, j *job, attempt int) (*JobResult, error) {
		k := vm.NewKernel(nil, nil)
		k.NewProc("server", nil, func(p *vm.Proc) { p.Recv(nil) })
		k.NewProc("client", nil, func(p *vm.Proc) {
			if j.Spec.Seed == bad.Seed {
				panic("task kaboom")
			}
			p.Send(0, 1, nil, 0)
		})
		if err := k.Run(); err != nil {
			return nil, err
		}
		return &JobResult{Steps: 1, Energies: []float64{1}}, nil
	})
	crashesBefore := mWorkerCrashes.Value()

	id, _, err := s.Submit("a", bad)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, id)
	snap, _ := s.store.snapshotOf(id)
	if snap.State != StateFailed || snap.Err != "ctlplane: worker panic: task kaboom" {
		t.Fatalf("panicking task: state %v, err %q; want failed with the worker-panic error", snap.State, snap.Err)
	}

	id, _, err = s.Submit("a", testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, id)
	if snap, _ := s.store.snapshotOf(id); snap.State != StateDone {
		t.Fatalf("job after the panic: %+v", snap)
	}
	if after := mWorkerCrashes.Value(); after != crashesBefore {
		t.Fatalf("task panic cost a worker: crashes %d -> %d", crashesBefore, after)
	}
}
