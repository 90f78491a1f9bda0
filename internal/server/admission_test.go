package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestAdmissionInlineShedRelease(t *testing.T) {
	mc := metrics.New()
	a := newAdmission(2, 0, mc)
	ctx := context.Background()

	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Both workers busy, zero queue depth: the third arrival sheds.
	err := a.acquire(ctx)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err = %v, want *ShedError", err)
	}
	if shed.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", shed.RetryAfter)
	}
	if got := mc.Counter(metrics.CounterServerShed); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	a.release()
	if err := a.acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if got := mc.Counter(metrics.CounterServerAdmitted); got != 3 {
		t.Errorf("admitted counter = %d, want 3", got)
	}
}

// TestAdmissionFIFO pins the grant order: with the single worker held,
// waiters queued one at a time are granted in the order they arrived.
func TestAdmissionFIFO(t *testing.T) {
	mc := metrics.New()
	a := newAdmission(1, 16, mc)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	const waiters = 8
	grants := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			if err := a.acquire(context.Background()); err != nil {
				t.Errorf("waiter %d: acquire: %v", i, err)
				return
			}
			grants <- i
			a.release()
		}()
		// Queue the next waiter only once this one is in line.
		waitQueued(t, a, i+1)
	}

	a.release() // free the worker; grants chain through each release
	for want := 0; want < waiters; want++ {
		select {
		case got := <-grants:
			if got != want {
				t.Fatalf("grant %d went to waiter %d, want arrival order", want, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("grant %d never came", want)
		}
	}
	if got := mc.Counter(metrics.CounterServerAdmitted); got != waiters+1 {
		t.Errorf("admitted counter = %d, want %d", got, waiters+1)
	}
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	mc := metrics.New()
	a := newAdmission(1, 4, mc)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- a.acquire(ctx) }()
	waitQueued(t, a, 1)

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, q := a.snapshot(); q != 0 {
		t.Errorf("queued = %d after abandonment, want 0", q)
	}

	// The abandoned ticket must not absorb the next grant.
	a.release()
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after abandoned ticket: %v", err)
	}
}

func TestAdmissionDrain(t *testing.T) {
	mc := metrics.New()
	a := newAdmission(1, 4, mc)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A request queued before the drain still gets served...
	granted := make(chan error, 1)
	go func() { granted <- a.acquire(context.Background()) }()
	waitQueued(t, a, 1)

	a.drain()

	// ...while new arrivals are rejected outright.
	if err := a.acquire(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire during drain = %v, want ErrDraining", err)
	}

	a.release()
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("queued-before-drain acquire: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued-before-drain ticket never granted")
	}
}

func waitQueued(t *testing.T, a *admission, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, q := a.snapshot(); q >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d", want)
		}
		time.Sleep(time.Millisecond)
	}
}
