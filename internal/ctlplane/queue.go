package ctlplane

import "sync"

// queue is the bounded FIFO job queue.  Admission never blocks: a full
// queue sheds the submission (the HTTP layer turns that into a 503 with
// Retry-After) instead of buffering without bound — Cornebize & Legrand's
// "variability matters" lesson applied to the service itself.  One global
// FIFO also gives per-tenant FIFO ordering for free: a tenant's jobs
// start in the order they were admitted.
type queue struct {
	mu     sync.Mutex
	nonEmp *sync.Cond
	items  []*job
	cap    int
	closed bool
}

func newQueue(capacity int) *queue {
	q := &queue{cap: capacity}
	q.nonEmp = sync.NewCond(&q.mu)
	return q
}

// tryPush admits j without blocking; false means the queue is full or
// closed and the submission must be shed.
func (q *queue) tryPush(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, j)
	q.nonEmp.Signal()
	return true
}

// forcePush re-enqueues a job the service already accepted (a retry after
// a worker crash).  It ignores the capacity bound and the closed flag:
// an accepted job must never be lost, and the overshoot is bounded by
// the worker count.
func (q *queue) forcePush(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = append(q.items, j)
	q.nonEmp.Signal()
}

// pop blocks until a job is available or the queue is closed and empty
// (drain: remaining accepted jobs are still handed out after close).
func (q *queue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.nonEmp.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	j := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return j, true
}

// depth reports the queued (not yet started) job count.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close stops external admission; queued jobs still drain through pop.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nonEmp.Broadcast()
}
