package ctlplane

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// shedError is a rejected admission: the HTTP layer maps Reason to a
// status code and RetryAfter to the Retry-After header, so clients can
// back off instead of hammering a saturated service.
type shedError struct {
	Reason     string // "rate_limited", "job_quota", "queue_full", "draining", "quarantined"
	RetryAfter time.Duration
}

func (e *shedError) Error() string {
	return fmt.Sprintf("ctlplane: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// tokenBucket is a classic continuous-refill token bucket.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

func (b *tokenBucket) take(now time.Time, rate, burst float64) (ok bool, wait time.Duration) {
	if b.last.IsZero() {
		b.tokens = burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(burst, b.tokens+dt*rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if rate <= 0 {
		return false, time.Second
	}
	return false, time.Duration((1 - b.tokens) / rate * float64(time.Second))
}

// quotas is the per-tenant admission controller: a token bucket bounds
// the submission *rate* and an active-job count bounds the *concurrent*
// footprint (queued + running) of each tenant.  Both are enforced before
// a job touches the queue, so one noisy tenant cannot crowd out the rest.
type quotas struct {
	mu      sync.Mutex
	rate    float64 // tokens per second per tenant
	burst   float64 // bucket depth
	maxJobs int     // concurrent accepted jobs per tenant; <= 0 disables
	now     func() time.Time
	tenants map[string]*tenantState
}

type tenantState struct {
	bucket tokenBucket
	active int
}

func newQuotas(rate, burst float64, maxJobs int, now func() time.Time) *quotas {
	if now == nil {
		now = time.Now
	}
	if burst < 1 {
		burst = 1
	}
	return &quotas{
		rate: rate, burst: burst, maxJobs: maxJobs, now: now,
		tenants: map[string]*tenantState{},
	}
}

func (q *quotas) state(tenant string) *tenantState {
	st := q.tenants[tenant]
	if st == nil {
		st = &tenantState{}
		q.tenants[tenant] = st
	}
	return st
}

// admit reserves one concurrent-job slot and one rate token for tenant,
// or explains the shed.  The slot is held until release — through
// retries and worker crashes — because the job stays accepted the whole
// time.
func (q *quotas) admit(tenant string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.state(tenant)
	if q.maxJobs > 0 && st.active >= q.maxJobs {
		return &shedError{Reason: "job_quota", RetryAfter: time.Second}
	}
	if ok, wait := st.bucket.take(q.now(), q.rate, q.burst); !ok {
		return &shedError{Reason: "rate_limited", RetryAfter: wait}
	}
	st.active++
	return nil
}

// allow is the rate-only check the hot /predict path uses: no slot is
// reserved because a prediction completes within the request.
func (q *quotas) allow(tenant string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if ok, wait := q.state(tenant).bucket.take(q.now(), q.rate, q.burst); !ok {
		return &shedError{Reason: "rate_limited", RetryAfter: wait}
	}
	return nil
}

// release returns tenant's concurrent-job slot once its job is terminal.
func (q *quotas) release(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if st := q.tenants[tenant]; st != nil && st.active > 0 {
		st.active--
	}
}
