package client

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/faults"
)

// fakeDaemon speaks the daemon's read-only artifact wire protocol over
// an in-memory map that tests fill with put: GETs frame the stored
// payload.
type fakeDaemon struct {
	mu      sync.Mutex
	entries map[string][]byte
}

func newFakeDaemon() *fakeDaemon { return &fakeDaemon{entries: make(map[string][]byte)} }

func (d *fakeDaemon) put(key artifact.Key, payload []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entries[string(key.Kind)+"/"+key.Digest] = payload
}

func (d *fakeDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/artifact/") {
		http.NotFound(w, r)
		return
	}
	d.mu.Lock()
	payload, ok := d.entries[strings.TrimPrefix(r.URL.Path, "/v1/artifact/")]
	d.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(artifact.Frame(payload))
}

func TestNewValidatesURL(t *testing.T) {
	for _, bad := range []string{"", "127.0.0.1:7333", "ftp://x", "http://"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted an invalid URL", bad)
		}
	}
	c, err := New("http://127.0.0.1:7333/")
	if err != nil {
		t.Fatal(err)
	}
	if c.BaseURL() != "http://127.0.0.1:7333" {
		t.Errorf("base = %q, want trailing slash trimmed", c.BaseURL())
	}
}

func TestFetchStoreRoundTrip(t *testing.T) {
	d := newFakeDaemon()
	srv := httptest.NewServer(d)
	defer srv.Close()
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	k := artifact.Key{Kind: "profile", Digest: "abc123"}

	if _, found, err := c.Fetch(k); err != nil || found {
		t.Fatalf("cold fetch: found=%v err=%v, want clean miss", found, err)
	}
	payload := []byte("columnar profile bytes")
	d.put(k, payload)
	got, found, err := c.Fetch(k)
	if err != nil || !found {
		t.Fatalf("warm fetch: found=%v err=%v", found, err)
	}
	if string(got) != string(payload) {
		t.Fatalf("round trip: %q != %q", got, payload)
	}
}

func TestFetchRejectsCorruptFrame(t *testing.T) {
	// A daemon that returns a frame with one payload byte flipped after
	// framing: the CRC no longer matches and Fetch must error, not return
	// mangled bytes.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		framed := artifact.Frame([]byte("intact payload"))
		framed[len(framed)-1] ^= 0x01
		w.Write(framed)
	}))
	defer srv.Close()
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Fetch(artifact.Key{Kind: "profile", Digest: "x"}); err == nil {
		t.Fatal("corrupt frame fetched without error")
	}
}

// TestCorruptFetchFallsBackToRebuild is the satellite contract: a
// Corrupt rule at client.fetch mangles the response in flight, frame
// verification rejects it, and the store rebuilds locally — counted as a
// remote failure, never served as a wrong answer.
func TestCorruptFetchFallsBackToRebuild(t *testing.T) {
	d := newFakeDaemon()
	srv := httptest.NewServer(d)
	defer srv.Close()
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	codec := artifact.JSONCodec[string]{Size: 8}
	k := artifact.Key{Kind: "run", Digest: artifact.Digest("spec")}

	// Seed the daemon with the intact artifact.
	seed, err := encodeVia(codec, "the value")
	if err != nil {
		t.Fatal(err)
	}
	d.put(k, seed)

	in := faults.NewInjector(7).Arm(SiteFetch, faults.Rule{Kind: faults.Corrupt, Rate: 1})
	faults.Set(in)
	defer faults.Set(nil)

	s := artifact.New()
	s.RegisterCodec("run", codec)
	s.SetRemote(c)
	rebuilds := 0
	v, err := artifact.Get(s, k, func() (string, int64, error) {
		rebuilds++
		return "the value", 8, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != "the value" || rebuilds != 1 {
		t.Fatalf("degraded get: v=%q rebuilds=%d, want intact value from 1 local rebuild", v, rebuilds)
	}
	ks := s.Stats().Kinds["run"]
	if ks.RemoteFailures == 0 {
		t.Errorf("remote_failures = 0, want the corrupt fetch counted")
	}
	if in.Fired(SiteFetch) == 0 {
		t.Error("corruption rule never fired; test is vacuous")
	}

	// Disarmed, the same store setup serves the remote entry.
	faults.Set(nil)
	s2 := artifact.New()
	s2.RegisterCodec("run", codec)
	s2.SetRemote(c)
	v2, err := artifact.Get(s2, k, func() (string, int64, error) {
		t.Error("rebuilt despite intact remote entry")
		return "", 8, nil
	})
	if err != nil || v2 != "the value" {
		t.Fatalf("clean fetch: v=%q err=%v", v2, err)
	}
}

// TestStoreSurfacesServerErrors: a daemon answering 500 is a fetch
// error, which a store with the client attached counts as a remote
// failure and answers with a local build.
func TestStoreSurfacesServerErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusInternalServerError)
	}))
	defer srv.Close()
	c, err := New(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	k := artifact.Key{Kind: "run", Digest: "x"}
	if _, _, err := c.Fetch(k); err == nil {
		t.Error("500 on fetch went unreported")
	}
	s := artifact.New()
	s.RegisterCodec("run", artifact.JSONCodec[string]{Size: 8})
	s.SetRemote(c)
	v, err := artifact.Get(s, k, func() (string, int64, error) { return "local", 8, nil })
	if err != nil || v != "local" {
		t.Fatalf("get over a failing daemon: v=%q err=%v, want a local build", v, err)
	}
	if ks := s.Stats().Kinds["run"]; ks.RemoteFailures != 1 || ks.Misses != 1 {
		t.Errorf("counters: %+v, want remote_failures=1 misses=1", ks)
	}
}

// encodeVia runs a codec to bytes the way the store's write path does.
func encodeVia(c artifact.Codec, v any) ([]byte, error) {
	var sb strings.Builder
	if err := c.Encode(&sb, v); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}
