package artifact

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

func key(kind Kind, spec string) Key {
	return Key{Kind: kind, Digest: Digest(spec)}
}

func TestDigestCanonical(t *testing.T) {
	type spec struct {
		A string
		B int
	}
	if Digest(spec{"x", 1}) != Digest(spec{"x", 1}) {
		t.Error("equal specs digest differently")
	}
	if Digest(spec{"x", 1}) == Digest(spec{"x", 2}) {
		t.Error("different specs share a digest")
	}
	if key("a", "s") == key("b", "s") {
		t.Error("kinds do not separate keys")
	}
}

func TestGetSingleFlight(t *testing.T) {
	s := New()
	var builds atomic.Int64
	const n = 32

	var wg sync.WaitGroup
	start := make(chan struct{})
	vals := make([]int, n)
	errs := make([]error, n)
	k := key("profile", "gzip")
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := Get(s, k, func() (int, error) {
				builds.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the in-flight window
				return 42, nil
			})
			vals[i], errs[i] = v, err
		}(i)
	}
	close(start)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("%d builds for one key under %d concurrent requests", got, n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || vals[i] != 42 {
			t.Fatalf("request %d: val=%d err=%v", i, vals[i], errs[i])
		}
	}
	ks := s.Stats().Kinds["profile"]
	if ks.Misses != 1 || ks.Hits != n-1 {
		t.Errorf("counters: hits=%d misses=%d, want %d/1", ks.Hits, ks.Misses, n-1)
	}
	if ks.InflightWaits > ks.Hits {
		t.Errorf("inflight waits %d exceed hits %d", ks.InflightWaits, ks.Hits)
	}
}

func TestErrorMemoizationPolicy(t *testing.T) {
	errPerm := errors.New("permanent")
	errTransient := &faults.Error{Site: faults.SiteWorkspaceMemo, Kind: faults.Transient}

	s := New()
	builds := map[string]int{}
	get := func(name string, fail error) error {
		_, err := Get(s, key("run", name), func() (int, error) {
			builds[name]++
			return 0, fail
		})
		return err
	}

	// A transient fault, an expired build and a panic anywhere in the
	// chain (here a dependency's, which the store did not catch itself)
	// are forgotten: every request rebuilds.
	for name, fail := range map[string]error{
		"transient": errTransient,
		"deadline":  fmt.Errorf("build: %w", context.DeadlineExceeded),
		"dep-panic": fmt.Errorf("build: %w", faults.Recovered("dependency", "boom")),
	} {
		for i := 0; i < 2; i++ {
			if err := get(name, fail); !errors.Is(err, fail) {
				t.Fatalf("%s get %d: %v", name, i, err)
			}
		}
		if builds[name] != 2 {
			t.Errorf("%s failure built %d times, want 2 (not memoized)", name, builds[name])
		}
	}

	// Permanent failures stay memoized: one build, repeated error.
	if err := get("p", errPerm); !errors.Is(err, errPerm) {
		t.Fatalf("first permanent get: %v", err)
	}
	if err := get("p", nil); !errors.Is(err, errPerm) {
		t.Fatalf("memoized permanent get returned %v, want the original error", err)
	}
	if builds["p"] != 1 {
		t.Errorf("permanent failure built %d times, want 1 (memoized)", builds["p"])
	}
}

func TestPanicNeverMemoized(t *testing.T) {
	s := New()
	calls := 0
	get := func() (int, error) {
		v, err := Get(s, key("run", "x"), func() (int, error) {
			calls++
			if calls == 1 {
				panic("boom")
			}
			return 7, nil
		})
		return v, err
	}
	if _, err := get(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("first get: err = %v, want a contained panic", err)
	}
	if v, err := get(); err != nil || v != 7 {
		t.Fatalf("post-panic rebuild: v=%d err=%v", v, err)
	}
}

func TestTypeMismatchFailsLoudly(t *testing.T) {
	s := New()
	k := key("run", "x")
	_, err := Get(s, k, func() (int, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	_, err = Get(s, k, func() (string, error) { return "", nil })
	if err == nil || !strings.Contains(err.Error(), "holds") {
		t.Fatalf("type mismatch err = %v, want a loud failure", err)
	}
}

// TestConcurrentChurn hammers a store from many goroutines (run with
// -race): builds, in-flight waits and hits interleave, and the counters
// must still balance — every request is exactly one hit or miss, and
// each distinct artifact is built once.
func TestConcurrentChurn(t *testing.T) {
	s := New()
	var requests atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("it-%d", (g+i)%7)
				requests.Add(1)
				v, err := Get(s, key("churn", name), func() (string, error) {
					return name + name, nil
				})
				if err != nil || v != name+name {
					t.Errorf("get %s: v=%q err=%v", name, v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	ks := s.Stats().Kinds["churn"]
	if total := ks.Hits + ks.Misses; total != requests.Load() {
		t.Errorf("hits+misses = %d, want %d requests", total, requests.Load())
	}
	if ks.Misses != 7 {
		t.Errorf("misses = %d, want 7 (one build per distinct artifact)", ks.Misses)
	}
}

// TestAdoptionSurvivesOriginatorCancel is the handoff contract: the
// requester that started a build disconnects mid-build, a second waiter
// is already attached, and the build must complete once for the survivor
// — no casualty, no re-run.
func TestAdoptionSurvivesOriginatorCancel(t *testing.T) {
	s := New()
	var builds atomic.Int64
	buildGate := make(chan struct{}) // held closed until the waiter has joined and the owner left
	buildDied := make(chan struct{}) // closed if the build's detached ctx is cancelled
	k := key("profile", "adopt")

	ownerCtx, ownerCancel := context.WithCancel(context.Background())
	ownerDone := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		_, err := GetCtx(s, ownerCtx, k, func(bctx context.Context) (int, error) {
			builds.Add(1)
			close(started)
			select {
			case <-buildGate:
				return 99, nil
			case <-bctx.Done():
				close(buildDied)
				return 0, bctx.Err()
			}
		})
		ownerDone <- err
	}()
	<-started

	// Second requester attaches to the in-flight build.
	waiterDone := make(chan int, 1)
	go func() {
		v, err := GetCtx(s, context.Background(), k, func(context.Context) (int, error) {
			builds.Add(1)
			return -1, nil
		})
		if err != nil {
			t.Errorf("adopting waiter: %v", err)
		}
		waiterDone <- v
	}()
	// Wait until the waiter is registered (InflightWaits ticks when it
	// joins the in-flight entry).
	for s.Stats().Kinds["profile"].InflightWaits == 0 {
		time.Sleep(time.Millisecond)
	}

	ownerCancel()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner got %v, want context.Canceled", err)
	}
	close(buildGate)
	if v := <-waiterDone; v != 99 {
		t.Fatalf("adopting waiter got %d, want 99 from the adopted build", v)
	}
	select {
	case <-buildDied:
		t.Fatal("build context was cancelled despite a surviving waiter")
	default:
	}
	ks := s.Stats().Kinds["profile"]
	if builds.Load() != 1 || ks.Misses != 1 {
		t.Errorf("builds=%d misses=%d, want 1/1 (adopted, not re-run)", builds.Load(), ks.Misses)
	}
	if ks.Adoptions != 1 {
		t.Errorf("adoptions=%d, want 1", ks.Adoptions)
	}
}

// TestLastWaiterCancelsBuild: with no surviving waiters the detached
// build must be cancelled promptly, its error forgotten, and the next
// request rebuilds cleanly.
func TestLastWaiterCancelsBuild(t *testing.T) {
	s := New()
	var builds atomic.Int64
	k := key("profile", "lone")

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := GetCtx(s, ctx, k, func(bctx context.Context) (int, error) {
			builds.Add(1)
			close(started)
			<-bctx.Done() // must fire: the sole waiter leaves
			return 0, bctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("sole requester got %v, want context.Canceled", err)
	}

	// The cancelled build is neither joined nor memoized: the very next
	// request rebuilds, even if the detached builder is still unwinding.
	v, err := Get(s, k, func() (int, error) {
		builds.Add(1)
		return 7, nil
	})
	if err != nil {
		t.Fatalf("rebuild after the last waiter left: %v", err)
	}
	if v != 7 {
		t.Fatalf("rebuild returned %d, want 7", v)
	}
	if ks := s.Stats().Kinds["profile"]; ks.Adoptions != 0 {
		t.Errorf("adoptions=%d, want 0 (no survivor adopted anything)", ks.Adoptions)
	}
}

// TestAbandonedBuildNotJoined pins the window between the last waiter
// leaving a build and that build returning. The abandoned build is held
// open on a gate; a request arriving in the window must start a fresh
// build, not join the dying one and inherit its cancellation.
func TestAbandonedBuildNotJoined(t *testing.T) {
	// abandon starts a build through a requester that cancels at once.
	// The build waits for its detached context to die, then for gate,
	// then returns late(bctx). abandon returns the build's entry, read
	// from the index before the requester cancels.
	abandon := func(t *testing.T, s *Store, k Key, gate chan struct{}, late func(context.Context) (any, error)) *entry {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			_, err := GetCtx(s, ctx, k, func(bctx context.Context) (any, error) {
				close(started)
				<-bctx.Done()
				<-gate
				return late(bctx)
			})
			done <- err
		}()
		<-started
		s.mu.Lock()
		orphan := s.items[k]
		s.mu.Unlock()
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("sole requester got %v, want context.Canceled", err)
		}
		return orphan
	}
	// fresh issues the second request while the abandoned build is still
	// held open. If the request joins that build instead of starting its
	// own, it opens the gate so the test fails rather than hangs.
	fresh := func(t *testing.T, s *Store, k Key, gate chan struct{}, val any) any {
		t.Helper()
		type result struct {
			v   any
			err error
		}
		got := make(chan result, 1)
		go func() {
			v, err := Get(s, k, func() (any, error) { return val, nil })
			got <- result{v, err}
		}()
		deadline := time.Now().Add(10 * time.Second)
		for {
			select {
			case r := <-got:
				if r.err != nil {
					t.Fatalf("request after the last waiter left: %v", r.err)
				}
				return r.v
			case <-time.After(time.Millisecond):
			}
			if s.Stats().Kinds["profile"].InflightWaits > 0 {
				close(gate)
				r := <-got
				t.Fatalf("request joined the abandoned build: val=%v err=%v", r.v, r.err)
			}
			if time.Now().After(deadline) {
				t.Fatal("request neither built nor joined")
			}
		}
	}

	t.Run("abandoned_build_fails", func(t *testing.T) {
		s := New()
		k := key("profile", "abandoned-fails")
		gate := make(chan struct{})
		abandon(t, s, k, gate, func(bctx context.Context) (any, error) { return nil, bctx.Err() })
		v := fresh(t, s, k, gate, 7)
		close(gate)
		ks := s.Stats().Kinds["profile"]
		if v != 7 || ks.Misses != 2 {
			t.Errorf("got %v after %d builds, want 7 from a second build", v, ks.Misses)
		}
	})

	t.Run("abandoned_build_succeeds_late", func(t *testing.T) {
		s := New()
		k := key("profile", "abandoned-succeeds")
		gate := make(chan struct{})
		orphan := abandon(t, s, k, gate, func(context.Context) (any, error) { return "orphan", nil })
		if v := fresh(t, s, k, gate, "fresh"); v != "fresh" {
			t.Fatalf("got %v, want the fresh build's value", v)
		}
		// The fresh build has finished; now let the orphan succeed.
		close(gate)
		select {
		case <-orphan.done:
		case <-time.After(10 * time.Second):
			t.Fatal("the orphan's build never finished")
		}
		// Its late value is dropped, not cached: a hit is served the
		// fresh value, and the orphan never became resident.
		again, err := Get(s, k, func() (any, error) { return nil, errors.New("rebuilt") })
		if err != nil || again != "fresh" {
			t.Errorf("hit after the orphan finished: v=%v err=%v, want the fresh value", again, err)
		}
		s.mu.Lock()
		resident := orphan.resident
		s.mu.Unlock()
		if resident {
			t.Error("the orphan's late value became resident")
		}
	})
}

// fakeRemote is an in-memory RemoteTier; tests fill it with put.
type fakeRemote struct {
	mu      sync.Mutex
	entries map[Key][]byte
	failing bool
}

func newFakeRemote() *fakeRemote { return &fakeRemote{entries: make(map[Key][]byte)} }

func (r *fakeRemote) Fetch(key Key) ([]byte, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failing {
		return nil, false, errors.New("remote unavailable")
	}
	p, ok := r.entries[key]
	return p, ok, nil
}

// put stores payload under key, as a peer that built the artifact would
// serve it.
func (r *fakeRemote) put(key Key, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[key] = payload
}

// TestRemoteTierRoundTrip: a store builds what the remote lacks and
// pushes nothing back (the tier is read-only); a second cold store
// fetches what the remote holds instead of rebuilding, bit-identical.
func TestRemoteTierRoundTrip(t *testing.T) {
	remote := newFakeRemote()
	k := key("run", "shared")
	codec := JSONCodec[string]{}

	s1 := New()
	s1.RegisterCodec("run", codec)
	s1.SetRemote(remote)
	v1, err := Get(s1, k, func() (string, error) { return "payload", nil })
	if err != nil {
		t.Fatal(err)
	}
	ks1 := s1.Stats().Kinds["run"]
	if ks1.Misses != 1 || ks1.RemoteMisses != 1 {
		t.Fatalf("producer counters: %+v, want miss/remote-miss = 1/1", ks1)
	}
	if len(remote.entries) != 0 {
		t.Fatal("a local build reached the read-only remote tier")
	}

	payload, err := encodeToBytes(codec, v1)
	if err != nil {
		t.Fatal(err)
	}
	remote.put(k, payload)
	s2 := New()
	s2.RegisterCodec("run", codec)
	s2.SetRemote(remote)
	v2, err := Get(s2, k, func() (string, error) {
		t.Error("consumer rebuilt despite a remote hit")
		return "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("remote round trip: %q != %q", v1, v2)
	}
	ks2 := s2.Stats().Kinds["run"]
	if ks2.RemoteHits != 1 || ks2.Misses != 0 {
		t.Fatalf("consumer counters: %+v, want remote_hits=1 misses=0", ks2)
	}

	// A failing remote degrades to a local rebuild, counted as a failure.
	remote.failing = true
	s3 := New()
	s3.RegisterCodec("run", codec)
	s3.SetRemote(remote)
	v3, err := Get(s3, k, func() (string, error) { return "payload", nil })
	if err != nil || v3 != "payload" {
		t.Fatalf("degraded get: v=%q err=%v", v3, err)
	}
	if ks3 := s3.Stats().Kinds["run"]; ks3.RemoteFailures == 0 || ks3.Misses != 1 {
		t.Fatalf("degraded counters: %+v, want remote_failures>0 misses=1", ks3)
	}
}

// TestRemoteHitWarmsDisk: a remote fetch lands the payload on the local
// disk tier, so the next cold start is disk-local.
func TestRemoteHitWarmsDisk(t *testing.T) {
	remote := newFakeRemote()
	k := key("run", "warm")
	codec := JSONCodec[int]{}
	payload, err := encodeToBytes(codec, 41)
	if err != nil {
		t.Fatal(err)
	}
	remote.put(k, payload)

	disk, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.RegisterCodec("run", codec)
	s.SetDisk(disk)
	s.SetRemote(remote)
	v, err := Get(s, k, func() (int, error) {
		t.Error("rebuilt despite remote entry")
		return 0, nil
	})
	if err != nil || v != 41 {
		t.Fatalf("remote get: v=%d err=%v", v, err)
	}
	if !disk.Has(k) {
		t.Fatal("remote hit did not warm the disk tier")
	}
	ks := s.Stats().Kinds["run"]
	if ks.RemoteHits != 1 || ks.DiskWrites != 1 {
		t.Fatalf("counters: %+v, want remote_hits=1 disk_writes=1", ks)
	}
}

// TestEncodedArtifactAndInstall exercises both halves of the remote
// protocol against stores: EncodedFrame exports a resident artifact as a
// verified frame, and a cold store installs that payload only through
// GetCtx's remote lookup. A payload the codec rejects is a remote failure
// answered by a local build, and a kind without a codec is never exported.
func TestEncodedArtifactAndInstall(t *testing.T) {
	codec := JSONCodec[string]{}
	k := key("run", "enc")

	s := New()
	s.RegisterCodec("run", codec)
	if _, _, err := s.EncodedFrame(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty store EncodedFrame err = %v, want ErrNotFound", err)
	}
	_, err := Get(s, k, func() (string, error) { return "body", nil })
	if err != nil {
		t.Fatal(err)
	}
	framed, spilled, err := s.EncodedFrame(k)
	if err != nil {
		t.Fatal(err)
	}
	if spilled {
		t.Error("a resident artifact was reported as spilled")
	}
	payload, err := Unframe(framed)
	if err != nil {
		t.Fatal(err)
	}

	remote := newFakeRemote()
	remote.put(k, payload)
	bad := key("run", "bad")
	remote.put(bad, []byte("{not json"))
	s2 := New()
	s2.RegisterCodec("run", codec)
	s2.SetRemote(remote)
	v, err := Get(s2, k, func() (string, error) {
		t.Error("rebuilt despite an exported artifact on the remote")
		return "", nil
	})
	if err != nil || v != "body" {
		t.Fatalf("installed get: v=%q err=%v", v, err)
	}

	v, err = Get(s2, bad, func() (string, error) { return "rebuilt", nil })
	if err != nil || v != "rebuilt" {
		t.Fatalf("undecodable remote payload: v=%q err=%v, want a local rebuild", v, err)
	}
	if ks := s2.Stats().Kinds["run"]; ks.RemoteHits != 1 || ks.RemoteFailures != 1 || ks.Misses != 1 {
		t.Fatalf("counters: %+v, want remote_hits=1 remote_failures=1 misses=1", ks)
	}

	nokind := key("nokind", "x")
	_, err = Get(s, nokind, func() (string, error) { return "v", nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.EncodedFrame(nokind); !errors.Is(err, ErrNotFound) {
		t.Fatalf("EncodedFrame of a codec-less kind: err = %v, want ErrNotFound", err)
	}
}

// TestFrameRoundTrip pins the wire framing to the disk format semantics:
// a mangled byte anywhere must fail verification.
func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the artifact payload bytes")
	framed := Frame(payload)
	got, err := Unframe(framed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("round trip: %q != %q", got, payload)
	}
	for i := range framed {
		bad := append([]byte(nil), framed...)
		bad[i] ^= 0x40
		if _, err := Unframe(bad); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	if _, err := Unframe(framed[:diskHeaderSize-1]); err == nil {
		t.Fatal("truncated header went undetected")
	}
}
