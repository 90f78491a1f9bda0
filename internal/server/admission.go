package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/metrics"
)

// ErrDraining is returned by acquire once the server has begun graceful
// shutdown: new work is rejected so in-flight work can finish.
var ErrDraining = errors.New("server: draining, not accepting new work")

// ShedError reports load-shedding backpressure: the admission queue was
// full, and the client should retry after the hinted delay.
type ShedError struct {
	// RetryAfter is the server's estimate of when a retry has a chance
	// of being admitted, derived from the queue depth and worker count.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("server: admission queue full, retry after %s", e.RetryAfter)
}

// admission is a bounded FIFO admission queue: at most workers requests
// execute concurrently, at most depth more wait, and waiters are granted
// in arrival order. Requests beyond the queue bound are shed immediately
// (the HTTP layer turns that into 429 + Retry-After).
type admission struct {
	mu       sync.Mutex
	workers  int
	depth    int
	active   int
	waiting  []chan struct{} // in arrival order; a grant closes the head
	draining bool

	mc *metrics.Collector
}

func newAdmission(workers, depth int, mc *metrics.Collector) *admission {
	if workers < 1 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	return &admission{workers: workers, depth: depth, mc: mc}
}

// acquire admits one request, blocking in the queue when all workers are
// busy. It returns ErrDraining during shutdown, a *ShedError when the
// queue is full, or the context's error if the caller gives up while
// queued. On nil return the caller holds a worker slot and must call
// release exactly once.
func (a *admission) acquire(ctx context.Context) error {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return ErrDraining
	}
	// Admit inline only when a worker is free AND nobody is waiting:
	// arrivals must not overtake waiters.
	if a.active < a.workers && len(a.waiting) == 0 {
		a.active++
		a.mu.Unlock()
		a.mc.Add(metrics.CounterServerAdmitted, 1)
		return nil
	}
	if len(a.waiting) >= a.depth {
		// One second per round of work ahead: the running round plus
		// the waiters spread over the workers.
		retry := time.Duration(1+len(a.waiting)/a.workers) * time.Second
		a.mu.Unlock()
		a.mc.Add(metrics.CounterServerShed, 1)
		return &ShedError{RetryAfter: retry}
	}
	ready := make(chan struct{})
	a.waiting = append(a.waiting, ready)
	a.mu.Unlock()

	select {
	case <-ready:
		a.mc.Add(metrics.CounterServerAdmitted, 1)
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		i := slices.Index(a.waiting, ready)
		if i < 0 {
			// The grant raced the cancellation: the slot is ours, hand it on.
			a.releaseLocked()
			a.mu.Unlock()
			return ctx.Err()
		}
		a.waiting = slices.Delete(a.waiting, i, i+1)
		a.mu.Unlock()
		return ctx.Err()
	}
}

// release returns a worker slot and grants it to the longest waiter, if
// any.
func (a *admission) release() {
	a.mu.Lock()
	a.releaseLocked()
	a.mu.Unlock()
}

func (a *admission) releaseLocked() {
	a.active--
	if len(a.waiting) == 0 {
		return
	}
	close(a.waiting[0])
	a.waiting = slices.Delete(a.waiting, 0, 1)
	a.active++
}

// drain switches the queue into shutdown mode: new acquires fail with
// ErrDraining; already-queued waiters still get granted as workers free
// up, so accepted work completes.
func (a *admission) drain() {
	a.mu.Lock()
	a.draining = true
	a.mu.Unlock()
}

// snapshot reports the queue's instantaneous state for /metricz.
func (a *admission) snapshot() (active, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active, len(a.waiting)
}
