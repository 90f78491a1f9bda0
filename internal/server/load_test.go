package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRunLoadRejectsBadConfig checks that a config no run can honour is
// refused before any request is sent, with an error naming the flag.
func TestRunLoadRejectsBadConfig(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("request sent for a rejected config: %s", r.URL)
	}))
	defer ts.Close()
	for _, tc := range []struct {
		cfg  LoadConfig
		want string
	}{
		{LoadConfig{Requests: 0, Concurrency: 2}, "-n"},
		{LoadConfig{Requests: 4, Concurrency: 0}, "-c 0: must be at least 1"},
		{LoadConfig{Requests: 4, Concurrency: -3}, "-c -3: must be at least 1"},
		{LoadConfig{Requests: 4, Concurrency: 2, Mix: []string{"nope"}}, "unknown mix kind"},
		{LoadConfig{Requests: 4, Concurrency: 2, Burst: -1}, "-burst -1: must not be negative"},
		{LoadConfig{Requests: 4, Concurrency: 2, Timeout: -time.Second}, "-timeout -1s: must not be negative"},
	} {
		rep, err := RunLoad(context.Background(), ts.URL, tc.cfg)
		if err == nil || rep != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: rep=%v err=%v, want no report and an error containing %q", tc.cfg, rep, err, tc.want)
		}
	}
}

// TestRunLoadClientTimeout pins LoadConfig.Timeout as a client-side
// bound: against a daemon that never answers, every request fails once
// the timeout passes, and the run returns instead of hanging.
func TestRunLoadClientTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // stall until the client gives up or the test ends
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)

	type result struct {
		rep *LoadReport
		err error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		rep, err := RunLoad(context.Background(), ts.URL, LoadConfig{
			Requests: 4, Concurrency: 2, Seed: 1, Timeout: 100 * time.Millisecond,
		})
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.rep.Sent != 4 || r.rep.Failed != 4 || r.rep.OK != 0 {
			t.Errorf("report %+v, want 4 sent and 4 failed", r.rep)
		}
		t.Logf("run returned after %v", time.Since(start))
	case <-time.After(5 * time.Second):
		t.Fatal("RunLoad still waiting on a stalled daemon after 5s: the client timeout was not applied")
	}
}
