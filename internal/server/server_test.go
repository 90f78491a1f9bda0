package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
)

const testBudget = 50_000

func newTestServer(t *testing.T, tune func(*Config)) (*Server, *httptest.Server, *metrics.Collector) {
	t.Helper()
	w := core.NewWorkspaceWorkers(testBudget, 2)
	mc := metrics.New()
	w.Metrics = mc
	cfg := Config{
		Workspace:      w,
		QueueDepth:     8,
		DefaultTimeout: time.Minute,
	}
	if tune != nil {
		tune(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, mc
}

func post(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestProbesAndDrain(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Work requests are rejected outright during/after drain.
	r, _ := post(t, ts.URL+"/v1/profile", `{"bench":"`+core.SuiteNames()[0]+`"}`)
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("profile after drain: status %d, want 503", r.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	bench := core.SuiteNames()[0]
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/experiment", `{"id":"e999"}`, http.StatusBadRequest},
		{"/v1/experiment", `{oops`, http.StatusBadRequest},
		{"/v1/profile", `{"bench":"nonesuch"}`, http.StatusBadRequest},
		{"/v1/predeval", `{"bench":"nonesuch"}`, http.StatusBadRequest},
		{"/v1/predeval", `{"bench":"` + bench + `","flavor":"alien"}`, http.StatusBadRequest},
		// A 2^40-entry table: refused before admission, never allocated.
		{"/v1/predeval", `{"bench":"` + bench + `","config":{"LogSets":20,"Ways":1048576,` +
			`"TagBits":8,"PathLen":2,"SigSlots":4,"CounterBits":2,"Threshold":2}}`, http.StatusBadRequest},
		// Anything after the one JSON value.
		{"/v1/profile", `{"bench":"` + bench + `"}garbage`, http.StatusBadRequest},
		{"/v1/experiment", `{"id":"e1"} {"id":"e2"}`, http.StatusBadRequest},
		// A body past maxBodyBytes is refused before it is decoded whole.
		{"/v1/profile", `{"bench":"` + strings.Repeat("x", maxBodyBytes) + `"}`,
			http.StatusRequestEntityTooLarge},
		// Experiments run one per request, through /v1/experiment only.
		{"/v1/experiments", `{"ids":["e1"]}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s %.60s: status %d, want %d (body %s)", tc.path, tc.body, resp.StatusCode, tc.want, body)
		}
	}
	// Trailing whitespace is not trailing data.
	if resp, body := post(t, ts.URL+"/v1/profile", `{"bench":"`+bench+`"}`+" \n\t\n"); resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: status %d, want 200 (body %s)", resp.StatusCode, body)
	}
	// Bad ?timeout= is a usage error too.
	resp, _ := post(t, ts.URL+"/v1/profile?timeout=banana", `{"bench":"`+core.SuiteNames()[0]+`"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout: status %d, want 400", resp.StatusCode)
	}
}

func TestProfileEndpointMatchesDirect(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)
	bench := core.SuiteNames()[0]

	resp, body := post(t, ts.URL+"/v1/profile", `{"bench":"`+bench+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got ProfileStats
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}

	// Bit-identity with a direct workspace computation at the same budget.
	p, err := core.NewWorkspace(testBudget).ProfileOf(bench)
	if err != nil {
		t.Fatal(err)
	}
	want := ProfileStats{Bench: bench, Budget: testBudget, Summary: p.Summary,
		Locality: p.Locality, DeadFraction: p.Summary.DeadFraction()}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("profile response diverges from direct run:\nserver: %s\ndirect: %s", gb, wb)
	}
	_ = s
}

func TestRequestTimeout(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	bench := core.SuiteNames()[0]
	resp, body := post(t, ts.URL+"/v1/profile?timeout=1ns", `{"bench":"`+bench+`"}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Kind != "deadline" {
		t.Errorf("error kind %q, want deadline", eb.Kind)
	}
}

func TestMaxTimeoutClamp(t *testing.T) {
	s, _, _ := newTestServer(t, func(c *Config) { c.MaxTimeout = time.Second })
	req := httptest.NewRequest(http.MethodPost, "/v1/profile?timeout=10m", nil)
	d, err := s.requestTimeout(req)
	if err != nil {
		t.Fatal(err)
	}
	if d != time.Second {
		t.Errorf("timeout = %v, want clamped to 1s", d)
	}
}

// TestClientDisconnectRecovery is the server half of the stream/chunk
// lifecycle fix: a client that disconnects mid-request cancels the
// request context, which aborts any build it initiated; an identical
// request afterwards must succeed and match a clean workspace bit for
// bit.
func TestClientDisconnectRecovery(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	bench := core.SuiteNames()[0]

	// Fire a cold profile request and abandon it almost immediately,
	// repeatedly, sweeping the cancellation point across the build.
	for _, after := range []time.Duration{0, 200 * time.Microsecond, 2 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/profile",
			strings.NewReader(`{"bench":"`+bench+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		time.Sleep(after)
		cancel()
		wg.Wait()
	}

	// The pools must be intact: a clean request succeeds and matches a
	// direct run.
	resp, body := post(t, ts.URL+"/v1/profile", `{"bench":"`+bench+`"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect request: status %d: %s", resp.StatusCode, body)
	}
	var got ProfileStats
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	p, err := core.NewWorkspace(testBudget).ProfileOf(bench)
	if err != nil {
		t.Fatal(err)
	}
	want := deadnessSummaryProbe{p.Summary.Total, p.Summary.Dead}
	if got.Summary.Total != want.total || got.Summary.Dead != want.dead {
		t.Errorf("post-disconnect profile diverges: got %d/%d, want %d/%d",
			got.Summary.Dead, got.Summary.Total, want.dead, want.total)
	}
}

type deadnessSummaryProbe struct{ total, dead int }

func TestShedUnderBurst(t *testing.T) {
	_, ts, mc := newTestServer(t, func(c *Config) {
		// One pool worker admits one request at a time.
		w := core.NewWorkspaceWorkers(testBudget, 1)
		w.Metrics = c.Workspace.Metrics
		c.Workspace = w
		c.QueueDepth = 0
	})
	benches := core.SuiteNames()

	// Hold the single worker for a deterministic interval per admitted
	// request via a delay fault at server.handle (fired after admission,
	// so the slot stays occupied through the sleep). Without this the
	// test hinges on a cold build outlasting goroutine scheduling skew.
	faults.Set(faults.NewInjector(1).Arm(SiteHandle,
		faults.Rule{Kind: faults.Delay, Rate: 1, Delay: 50 * time.Millisecond}))
	t.Cleanup(func() { faults.Set(nil) })

	// Burst cold requests at a single worker with no queue: all but the
	// one holding the worker shed with 429 + Retry-After.
	const burst = 8
	statuses := make([]int, burst)
	retryAfter := make([]string, burst)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/profile", "application/json",
				strings.NewReader(`{"bench":"`+benches[i%len(benches)]+`"}`))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	close(start)
	wg.Wait()

	sheds := 0
	for i, st := range statuses {
		if st == http.StatusTooManyRequests {
			sheds++
			if retryAfter[i] == "" {
				t.Error("429 without Retry-After header")
			}
		}
	}
	if sheds == 0 {
		t.Fatal("no request was shed; backpressure test is vacuous")
	}
	if got := mc.Counter(metrics.CounterServerShed); int(got) != sheds {
		t.Errorf("shed counter = %d, observed %d sheds", got, sheds)
	}
}

func TestMetricz(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	bench := core.SuiteNames()[0]
	if resp, _ := post(t, ts.URL+"/v1/profile", `{"bench":"`+bench+`"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("profile: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Model    string          `json:"model"`
		Run      metrics.Summary `json:"run"`
		Draining bool            `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Model != core.ModelFingerprint {
		t.Errorf("model = %q, want the fingerprint every key carries, %q", m.Model, core.ModelFingerprint)
	}
	if m.Run.Counters[metrics.CounterServerCompleted] < 1 {
		t.Errorf("completed counter = %d, want >= 1", m.Run.Counters[metrics.CounterServerCompleted])
	}
	if m.Run.Mem == nil || m.Run.Mem.HeapInuseBytes == 0 {
		t.Errorf("run.mem = %+v, want a measured heap (heap_inuse_bytes > 0)", m.Run.Mem)
	}
	if m.Draining {
		t.Error("draining reported on a live server")
	}
}

// TestCoalescedBurstBitIdentical is the identical-burst contract:
// identical concurrent requests each take an admission slot, share one
// build in the artifact store, and receive byte-identical bodies.
func TestCoalescedBurstBitIdentical(t *testing.T) {
	const dup = 6
	s, ts, mc := newTestServer(t, func(c *Config) {
		// Deep enough for the whole burst: no duplicate sheds.
		c.QueueDepth = dup
	})
	bench := core.SuiteNames()[1]

	// Hold each execution open so the duplicates overlap.
	faults.Set(faults.NewInjector(7).Arm(SiteHandle,
		faults.Rule{Kind: faults.Delay, Rate: 1, Delay: 100 * time.Millisecond}))
	t.Cleanup(func() { faults.Set(nil) })

	statuses := make([]int, dup)
	bodies := make([][]byte, dup)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/profile", "application/json",
				strings.NewReader(`{"bench":"`+bench+`"}`))
			if err != nil {
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			statuses[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	close(start)
	wg.Wait()

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 (body %s)", i, st, bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body diverges from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := mc.Counter(metrics.CounterServerCompleted); got != dup {
		t.Errorf("completed counter = %d, want %d", got, dup)
	}
	ks := s.w.ArtifactStats().Kinds
	if st := ks[core.KindFacts]; st.Misses != 1 || st.Hits != dup-1 {
		t.Errorf("facts builds/hits = %d/%d, want 1/%d for %d identical requests", st.Misses, st.Hits, dup-1, dup)
	}
	if st := ks[core.KindProfile]; st.Misses != 1 || st.Hits != 0 {
		t.Errorf("profile builds/hits = %d/%d, want 1/0 (read by the one facts build)", st.Misses, st.Hits)
	}
}

// TestProfileEndpointReadsOnlyFacts pins /v1/profile's warm path: over a
// disk tier a cold server populated, the answer is the facts entry alone,
// read from disk with no profile opened, and its body equals the cold
// server's.
func TestProfileEndpointReadsOnlyFacts(t *testing.T) {
	dir := t.TempDir()
	overDir := func(cfg *Config) {
		if err := cfg.Workspace.OpenDiskCache(dir, 0); err != nil {
			t.Fatal(err)
		}
	}
	body := `{"bench":"` + core.SuiteNames()[0] + `"}`
	_, cold, _ := newTestServer(t, overDir)
	resp, coldBody := post(t, cold.URL+"/v1/profile", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d: %s", resp.StatusCode, coldBody)
	}

	s, warm, _ := newTestServer(t, overDir)
	resp, warmBody := post(t, warm.URL+"/v1/profile", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.StatusCode, warmBody)
	}
	if !bytes.Equal(warmBody, coldBody) {
		t.Errorf("warm body diverges from the cold server's:\ncold %s\nwarm %s", coldBody, warmBody)
	}
	ks := s.w.ArtifactStats().Kinds
	if f := ks[core.KindFacts]; f.DiskHits != 1 || f.Misses != 0 {
		t.Errorf("warm facts stats = %+v, want one disk hit and no build", f)
	}
	if p := ks[core.KindProfile]; p.Hits != 0 || p.Misses != 0 || p.DiskHits != 0 {
		t.Errorf("warm /v1/profile opened a profile: %+v", p)
	}
}

// TestArtifactTransferEndpoints exercises the remote-tier wire protocol
// end to end: a cold workspace with the daemon attached as its remote
// tier warm-starts from it (GET), and the export is read-only (PUT is
// refused and installs nothing).
func TestArtifactTransferEndpoints(t *testing.T) {
	_, ts, mc := newTestServer(t, nil)
	bench := core.SuiteNames()[0]

	// Warm the daemon with one profile build.
	if resp, body := post(t, ts.URL+"/v1/profile", `{"bench":"`+bench+`"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm profile: %d: %s", resp.StatusCode, body)
	}

	// A second workspace at the same budget, with the daemon as remote
	// tier, resolves the same profile without building it.
	rc, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorkspaceWorkers(testBudget, 2)
	w2.SetRemoteTier(rc)
	p, err := w2.ProfileOf(bench)
	if err != nil {
		t.Fatalf("remote warm start: %v", err)
	}
	if p.Summary.Total == 0 {
		t.Error("remote-fetched profile is empty")
	}
	st := w2.ArtifactStats().Kinds[core.KindProfile]
	if st.RemoteHits != 1 || st.Misses != 0 {
		t.Errorf("profile remote_hits=%d misses=%d, want 1 hit and 0 misses", st.RemoteHits, st.Misses)
	}
	if hits := mc.Counter(metrics.CounterServerArtifactHits); hits == 0 {
		t.Error("daemon served no artifact GET")
	}

	// No upload route: a PUT of a well-formed frame is refused with 405,
	// and the key it named still misses below.
	unknown := "/v1/artifact/profile/" + strings.Repeat("0", 64)
	put, err := http.NewRequest(http.MethodPut, ts.URL+unknown, bytes.NewReader(artifact.Frame([]byte("{}"))))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT %s: status %d, want 405", unknown, resp.StatusCode)
	}

	// Malformed paths are rejected; a well-formed unknown digest is a 404.
	for _, path := range []string{
		"/v1/artifact/Profile/" + strings.Repeat("0", 64), // uppercase kind
		"/v1/artifact/profile/shortdigest",
		"/v1/artifact/profile/" + strings.Repeat("x", 64), // non-hex digest
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
	resp, err = http.Get(ts.URL + unknown)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown digest: status %d, want 404", resp.StatusCode)
	}
	if misses := mc.Counter(metrics.CounterServerArtifactMisses); misses == 0 {
		t.Error("artifact miss counter did not move on a 404")
	}
}

// TestArtifactGetSpillThrough pins the disk-tier fast path: when the
// requested artifact lives only in the daemon's disk tier, the GET serves
// the entry file's bytes directly (the on-disk framing IS the wire
// framing) and counts a spill-through; a remote-attached workspace must
// decode those bytes as a normal warm start.
func TestArtifactGetSpillThrough(t *testing.T) {
	dir := t.TempDir()
	withDisk := func(cfg *Config) {
		if err := cfg.Workspace.OpenDiskCache(dir, 64<<20); err != nil {
			t.Fatal(err)
		}
	}
	_, ts, _ := newTestServer(t, withDisk)
	bench := core.SuiteNames()[0]
	if resp, body := post(t, ts.URL+"/v1/profile", `{"bench":"`+bench+`"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm profile: %d: %s", resp.StatusCode, body)
	}
	// Restart the daemon over the same tier: nothing is resident, so the
	// only copy is the disk entry and the GET below must take the
	// spill-through path.
	_, ts, mc := newTestServer(t, withDisk)

	rc, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	w2 := core.NewWorkspaceWorkers(testBudget, 2)
	w2.SetRemoteTier(rc)
	p, err := w2.ProfileOf(bench)
	if err != nil {
		t.Fatalf("remote warm start from the disk entry: %v", err)
	}
	if p.Summary.Total == 0 {
		t.Error("spill-through-fetched profile is empty")
	}
	spills := mc.Counter(metrics.CounterServerArtifactSpillthrough)
	if spills == 0 {
		t.Error("no spill-through recorded for a disk-only artifact GET")
	}
	if hits := mc.Counter(metrics.CounterServerArtifactHits); hits < spills {
		t.Errorf("spill-throughs (%d) exceed artifact hits (%d)", spills, hits)
	}
}

// TestAdoptionAcrossRequests is the server half of build adoption: a
// request that starts a cold build and disconnects does not doom the
// build when a second request for the same artifact is waiting on it —
// the survivor adopts the in-flight work instead of paying for a restart.
func TestAdoptionAcrossRequests(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)
	bench := core.SuiteNames()[2]

	// Hold the facts build open inside the store (the delay fires in the
	// build itself, before it asks for the profile), so the survivor
	// attaches to it while it runs.
	in := faults.NewInjector(3).Arm(faults.SiteWorkspaceMemo,
		faults.Rule{Kind: faults.Delay, Rate: 1, Max: 1, Delay: 150 * time.Millisecond})
	faults.Set(in)
	t.Cleanup(func() { faults.Set(nil) })
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The originator: starts the cold facts build, then vanishes.
	octx, ocancel := context.WithCancel(context.Background())
	defer ocancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(octx, http.MethodPost, ts.URL+"/v1/profile",
			strings.NewReader(`{"bench":"`+bench+`"}`))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor("the originator's build to start", func() bool { return in.Fired(faults.SiteWorkspaceMemo) == 1 })

	// The survivor: the same request, waiting on the originator's build.
	done := make(chan deadnessSummaryProbe, 1)
	errc := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/profile", "application/json",
			strings.NewReader(`{"bench":"`+bench+`"}`))
		if err != nil {
			errc <- err
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errc <- fmt.Errorf("survivor: status %d: %s", resp.StatusCode, body)
			return
		}
		var ps ProfileStats
		if err := json.Unmarshal(body, &ps); err != nil {
			errc <- err
			return
		}
		done <- deadnessSummaryProbe{ps.Summary.Total, ps.Summary.Dead}
	}()

	waitFor("the survivor to attach to the build", func() bool {
		return s.w.ArtifactStats().Kinds[core.KindFacts].InflightWaits >= 1
	})
	ocancel()
	wg.Wait()

	select {
	case err := <-errc:
		t.Fatal(err)
	case got := <-done:
		p, err := core.NewWorkspace(testBudget).ProfileOf(bench)
		if err != nil {
			t.Fatal(err)
		}
		if want := (deadnessSummaryProbe{p.Summary.Total, p.Summary.Dead}); got != want {
			t.Errorf("survivor got %+v, want %+v", got, want)
		}
	}
	ks := s.w.ArtifactStats().Kinds
	if st := ks[core.KindFacts]; st.Adoptions != 1 || st.Misses != 1 {
		t.Errorf("facts adoptions/builds = %d/%d, want 1/1 (adoption, not restart)", st.Adoptions, st.Misses)
	}
	if st := ks[core.KindProfile]; st.Misses != 1 {
		t.Errorf("profile builds = %d, want 1 (the adopted facts build's)", st.Misses)
	}
}

// TestRepeatedExperimentServedFromStore checks that /v1/experiment
// serves an experiment from the artifact store: eight requests for one
// ID, the first four concurrent, build it once and get byte-identical
// bodies.
func TestRepeatedExperimentServedFromStore(t *testing.T) {
	const concurrent, serial = 4, 4
	_, ts, _ := newTestServer(t, nil)
	bodies := make([][]byte, concurrent+serial)
	statuses := make([]int, concurrent+serial)
	postE5 := func(i int) {
		resp, err := http.Post(ts.URL+"/v1/experiment", "application/json", strings.NewReader(`{"id":"e5"}`))
		if err != nil {
			return
		}
		bodies[i], _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		statuses[i] = resp.StatusCode
	}
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func() { defer wg.Done(); postE5(i) }()
	}
	wg.Wait()
	for i := concurrent; i < concurrent+serial; i++ {
		postE5(i)
	}
	for i, b := range bodies {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (body %s)", i, statuses[i], b)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("request %d body diverges from request 0:\n%s\nvs\n%s", i, b, bodies[0])
		}
	}

	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Artifacts artifact.Stats `json:"artifacts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	ks := m.Artifacts.Kinds
	if st := ks[core.KindExperiment]; st.Misses != 1 || st.Hits != concurrent+serial-1 {
		t.Errorf("experiment builds/hits = %d/%d, want 1/%d", st.Misses, st.Hits, concurrent+serial-1)
	}
	if st := ks[core.KindPredEval]; st.Misses != int64(len(core.SuiteNames())) {
		t.Errorf("predeval builds = %d, want %d (one build of E5)", st.Misses, len(core.SuiteNames()))
	}
}

// TestRemoteExperimentReadsNoLowerTier checks that a workspace whose
// remote tier is a daemon that has served E5 fetches E5 whole: one
// experiment remote hit, no build, and no predictor evaluation looked up
// anywhere.
func TestRemoteExperimentReadsNoLowerTier(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	resp, body := post(t, ts.URL+"/v1/experiment", `{"id":"e5"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("e5: status %d: %s", resp.StatusCode, body)
	}
	var served ExperimentResult
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	rc, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewWorkspaceWorkers(testBudget, 2)
	w.SetRemoteTier(rc)
	exps, err := w.RunExperiments(context.Background(), []string{"e5"})
	if err != nil {
		t.Fatal(err)
	}
	if got := exps[0].Render(); got != served.Render {
		t.Errorf("remote E5 renders differently from the daemon's:\n%s\nvs\n%s", got, served.Render)
	}
	ks := w.ArtifactStats().Kinds
	if st := ks[core.KindExperiment]; st.RemoteHits != 1 || st.Misses != 0 {
		t.Errorf("experiment stats = %+v, want one remote hit and no build", st)
	}
	if st, ok := ks[core.KindPredEval]; ok {
		t.Errorf("remote E5 looked up predictor evaluations: %+v", st)
	}
}

// TestIdleDrainPastDeadlineIsClean checks that a drain whose deadline
// has already passed reports no forced cancellation when nothing is in
// flight.
func TestIdleDrainPastDeadlineIsClean(t *testing.T) {
	for i := range 50 {
		s := New(Config{Workspace: core.NewWorkspaceWorkers(testBudget, 1)})
		ctx, cancel := context.WithTimeout(context.Background(), 0)
		err := s.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("idle drain %d: %v, want nil", i, err)
		}
	}
}

// TestDrainDeadlineCancelsInflightRequest holds an experiment request
// in flight, its simulation asleep in an injected delay, through a drain
// whose deadline has passed: the drain reports the forced cancellation,
// and the request unwinds with a cancellation error instead of waiting
// the delay out.
func TestDrainDeadlineCancelsInflightRequest(t *testing.T) {
	const delay = 5 * time.Second
	s, ts, _ := newTestServer(t, nil)
	in := faults.NewInjector(1).Arm(faults.SiteSimulate,
		faults.Rule{Kind: faults.Delay, Rate: 1, Max: 1, Delay: delay})
	faults.Set(in)
	t.Cleanup(func() { faults.Set(nil) })

	type reply struct {
		status int
		body   []byte
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/experiment", "application/json", strings.NewReader(`{"id":"e9"}`))
		if err != nil {
			replied <- reply{}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		replied <- reply{resp.StatusCode, b}
	}()
	for in.Fired(faults.SiteSimulate) == 0 {
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("drain with a request in flight: %v, want the forced deadline", err)
	}
	r := <-replied
	if elapsed := time.Since(start); elapsed >= delay-time.Second {
		t.Errorf("the request unwound after %v: the drain did not cancel it", elapsed)
	}
	var eb errorBody
	if r.status != http.StatusServiceUnavailable || json.Unmarshal(r.body, &eb) != nil || eb.Kind != "cancelled" {
		t.Errorf("in-flight request answered %d %s, want 503 with kind cancelled", r.status, r.body)
	}
}
