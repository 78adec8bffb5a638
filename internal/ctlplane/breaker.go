package ctlplane

import (
	"sync"
	"time"
)

// breaker quarantines specs that fail repeatedly.  It is keyed by the
// canonical spec hash: determinism means a spec that failed N times in a
// row will keep failing, so re-running it burns worker time every other
// tenant is queueing for.  Classic three-state machine per key:
//
//	closed    counting consecutive failures; trips at threshold
//	open      submissions rejected until the cooldown elapses
//	half-open one probe execution allowed through; success closes,
//	          failure re-opens for another cooldown
//
// Worker crashes do NOT count: they indict the worker, not the spec.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures to trip (<=0 disables)
	cooldown  time.Duration // open duration before the half-open probe
	now       func() time.Time
	keys      map[string]*breakerState
}

type breakerState struct {
	fails   int
	state   int // 0 closed, 1 open, 2 half-open (probe in flight)
	until   time.Time
	probing bool
}

const (
	brkClosed = iota
	brkOpen
	brkHalfOpen
)

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now,
		keys: map[string]*breakerState{}}
}

// allow reports whether an execution of key may start; a quarantined key
// returns a shedError carrying the remaining cooldown.
func (b *breaker) allow(key string) error {
	if b.threshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.keys[key]
	if st == nil {
		return nil
	}
	switch st.state {
	case brkClosed:
		return nil
	case brkOpen:
		if wait := st.until.Sub(b.now()); wait > 0 {
			return &shedError{Reason: "quarantined", RetryAfter: wait}
		}
		// Cooldown over: become half-open and let this caller probe.
		st.state = brkHalfOpen
		st.probing = true
		return nil
	default: // half-open
		if st.probing {
			return &shedError{Reason: "quarantined", RetryAfter: b.cooldown}
		}
		st.probing = true
		return nil
	}
}

// success reports a completed execution of key; it closes the circuit.
func (b *breaker) success(key string) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.keys, key)
}

// failure reports a failed execution attempt of key.
func (b *breaker) failure(key string) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.keys[key]
	if st == nil {
		st = &breakerState{}
		b.keys[key] = st
	}
	st.fails++
	st.probing = false
	if st.state == brkHalfOpen || st.fails >= b.threshold {
		st.state = brkOpen
		st.until = b.now().Add(b.cooldown)
	}
}

// openCount reports how many keys are currently quarantined (/healthz).
func (b *breaker) openCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, st := range b.keys {
		if st.state != brkClosed {
			n++
		}
	}
	return n
}
