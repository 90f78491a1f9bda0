package core

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"repro/internal/faults"
)

// Pool bounds the number of concurrently executing heavy tasks (profile
// builds, machine simulations, predictor evaluations). It is a counting
// semaphore rather than a fixed set of worker goroutines so that nested
// fan-outs cannot deadlock: coordinator goroutines (one per experiment,
// one per suite benchmark) are cheap and never hold a slot while waiting
// on child tasks — only the leaf work itself occupies a slot.
type Pool struct {
	sem chan struct{}
}

// NewPool creates a pool running at most workers tasks at once
// (GOMAXPROCS if workers <= 0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Do runs fn on the calling goroutine once a slot is free. A panic in fn
// is recovered and returned as an error (preserving the panic value's
// error chain, so injected faults stay attributable); a context cancelled
// while waiting for a slot returns ctx.Err() without running fn. Tasks
// must not call Do re-entrantly while holding a slot.
func (p *Pool) Do(ctx context.Context, fn func() error) (err error) {
	// Check upfront so an already-cancelled context never runs the task
	// (the select below picks randomly when both channels are ready).
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case p.sem <- struct{}{}:
	}
	defer func() { <-p.sem }()
	defer func() {
		if r := recover(); r != nil {
			err = faults.Recovered("core: task panic", r)
		}
	}()
	if err := faults.Fire(faults.SitePoolTask); err != nil {
		return err
	}
	return fn()
}

// ForEach runs fn(i) for every i in [0, n) with the pool's concurrency
// bound. The first failure cancels the tasks still waiting for a slot.
// The returned error is deterministic: the lowest-index error that is not
// a cancellation casualty, so racing goroutine schedules cannot change
// which failure the caller sees.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.Do(ctx, func() error { return fn(i) })
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}
