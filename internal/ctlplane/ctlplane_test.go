package ctlplane

import (
	"errors"
	"testing"
	"time"
)

// --- canonicalization and hashing ---

func TestCanonicalizeDefaultsAndHash(t *testing.T) {
	a, err := JobSpec{Tenant: "alice", Steps: 10, Servers: 2}.Canonicalize(Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{Tenant: "bob", Platform: " J90 ", Size: "SMALL", Scale: 1,
		Steps: 10, Servers: 2, Cutoff: 60, UpdateEvery: 1, Strategy: "LCG"}.Canonicalize(Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tenant != "" || b.Tenant != "" {
		t.Fatalf("tenant must be cleared, got %q / %q", a.Tenant, b.Tenant)
	}
	if a.Hash() != b.Hash() {
		t.Fatalf("explicit defaults and implied defaults must hash equal:\n%+v -> %s\n%+v -> %s",
			a, a.Hash(), b, b.Hash())
	}
	c, err := JobSpec{Steps: 10, Servers: 2, Seed: 7}.Canonicalize(Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash() == a.Hash() {
		t.Fatal("different seed must change the hash")
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	bad := []JobSpec{
		{Steps: 0, Servers: 1},                      // steps required
		{Steps: 10, Servers: 1, Platform: "pdp11"},  // unknown platform
		{Steps: 10, Servers: 1, Size: "gigantic"},   // unknown size
		{Steps: 10, Servers: 1, Scale: 2},           // scale out of range
		{Steps: 10, Servers: 999},                   // servers over limit
		{Steps: 99999, Servers: 1},                  // steps over limit
		{Steps: 10, Servers: 1, Strategy: "random"}, // unknown strategy
		{Steps: 10, Servers: 1, FaultRate: 2},       // fault rate out of range
		{Steps: 10, Servers: 0, SelfHeal: true},     // self-heal needs servers
		{Steps: 10, Servers: 1, Cutoff: -1},         // negative cutoff
	}
	for i, s := range bad {
		if _, err := s.Canonicalize(Limits{}); err == nil {
			t.Errorf("spec %d (%+v) should have been rejected", i, s)
		}
	}
}

// --- queue ---

func TestQueueFIFOAndShed(t *testing.T) {
	q := newQueue(2)
	j1, j2, j3 := &job{ID: "a"}, &job{ID: "b"}, &job{ID: "c"}
	if !q.tryPush(j1) || !q.tryPush(j2) {
		t.Fatal("pushes under capacity must succeed")
	}
	if q.tryPush(j3) {
		t.Fatal("push over capacity must shed")
	}
	// An accepted job being requeued after a crash ignores the bound.
	q.forcePush(j3)
	if q.depth() != 3 {
		t.Fatalf("depth = %d, want 3", q.depth())
	}
	for _, want := range []string{"a", "b", "c"} {
		j, ok := q.pop()
		if !ok || j.ID != want {
			t.Fatalf("pop = %v,%v want %s", j, ok, want)
		}
	}
	q.close()
	if q.tryPush(j1) {
		t.Fatal("push after close must shed")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on closed empty queue must report closed")
	}
}

func TestQueueDrainsAfterClose(t *testing.T) {
	q := newQueue(4)
	q.tryPush(&job{ID: "a"})
	q.close()
	// Jobs accepted before close still drain.
	if j, ok := q.pop(); !ok || j.ID != "a" {
		t.Fatalf("pop after close = %v,%v", j, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("closed empty queue must end the worker loop")
	}
}

// --- quotas ---

func TestQuotaSlotsAndRate(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	q := newQuotas(1, 2, 2, now) // 1/s, burst 2, 2 concurrent
	if err := q.admit("a"); err != nil {
		t.Fatal(err)
	}
	if err := q.admit("a"); err != nil {
		t.Fatal(err)
	}
	var shed *shedError
	if err := q.admit("a"); !errors.As(err, &shed) || shed.Reason != "job_quota" {
		t.Fatalf("third concurrent admit = %v, want job_quota", err)
	}
	// Tenants are isolated: b still has slots and tokens.
	if err := q.admit("b"); err != nil {
		t.Fatalf("tenant b must be unaffected: %v", err)
	}
	q.release("a")
	// Slot free but the bucket is empty (burst 2 spent at t=0).
	if err := q.admit("a"); !errors.As(err, &shed) || shed.Reason != "rate_limited" {
		t.Fatalf("rate-limited admit = %v, want rate_limited", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("rate_limited must carry a positive Retry-After, got %v", shed.RetryAfter)
	}
	clock = clock.Add(time.Second) // refill one token
	if err := q.admit("a"); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if got := q.activeJobs("a"); got != 2 {
		t.Fatalf("activeJobs = %d, want 2", got)
	}
}

// --- breaker ---

func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	b := newBreaker(2, 10*time.Second, now)
	if err := b.allow("k"); err != nil {
		t.Fatal(err)
	}
	b.failure("k")
	if err := b.allow("k"); err != nil {
		t.Fatalf("one failure below threshold must not trip: %v", err)
	}
	b.failure("k") // trips at 2
	var shed *shedError
	if err := b.allow("k"); !errors.As(err, &shed) || shed.Reason != "quarantined" {
		t.Fatalf("open breaker = %v, want quarantined", err)
	}
	if shed.RetryAfter <= 0 || shed.RetryAfter > 10*time.Second {
		t.Fatalf("quarantine Retry-After = %v, want (0, 10s]", shed.RetryAfter)
	}
	if b.openCount() != 1 {
		t.Fatalf("openCount = %d, want 1", b.openCount())
	}
	clock = clock.Add(11 * time.Second)
	// Cooldown over: exactly one probe goes through.
	if err := b.allow("k"); err != nil {
		t.Fatalf("half-open probe must be allowed: %v", err)
	}
	if err := b.allow("k"); err == nil {
		t.Fatal("second concurrent probe must be rejected")
	}
	b.failure("k") // probe failed: re-open
	if err := b.allow("k"); err == nil {
		t.Fatal("failed probe must re-open the circuit")
	}
	clock = clock.Add(11 * time.Second)
	if err := b.allow("k"); err != nil {
		t.Fatalf("second probe window: %v", err)
	}
	b.success("k") // probe succeeded: closed and forgotten
	if err := b.allow("k"); err != nil {
		t.Fatalf("closed breaker must admit: %v", err)
	}
	if b.openCount() != 0 {
		t.Fatalf("openCount after success = %d, want 0", b.openCount())
	}
}

// --- retry backoff ---

func TestRetryDelayFullJitterBounds(t *testing.T) {
	base, max := 10*time.Millisecond, 500*time.Millisecond
	for attempt := 1; attempt <= 10; attempt++ {
		ceil := base << uint(attempt-1)
		if ceil > max || ceil <= 0 {
			ceil = max
		}
		for _, hash := range []string{"aaa", "bbb", "deadbeef"} {
			d := retryDelay(hash, attempt, base, max)
			if d <= 0 || d > ceil {
				t.Fatalf("retryDelay(%q, %d) = %v outside (0, %v]", hash, attempt, d, ceil)
			}
			if d != retryDelay(hash, attempt, base, max) {
				t.Fatalf("retryDelay(%q, %d) must be deterministic", hash, attempt)
			}
		}
	}
	// Different hashes decorrelate: at least one pair of schedules differs.
	same := true
	for attempt := 1; attempt <= 5; attempt++ {
		if retryDelay("aaa", attempt, base, max) != retryDelay("bbb", attempt, base, max) {
			same = false
		}
	}
	if same {
		t.Fatal("backoff schedules for different hashes should be decorrelated")
	}
}
