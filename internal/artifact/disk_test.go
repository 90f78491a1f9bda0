package artifact

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// payload is the JSON-persistable test artifact.
type payload struct {
	Name string
	N    int
}

func payloadCodec() Codec { return JSONCodec[payload]{Size: 64} }

// diskStore builds a store backed by a disk tier at dir.
func diskStore(t *testing.T, dir string, diskBudget int64) *Store {
	t.Helper()
	s := New()
	s.RegisterCodec("profile", payloadCodec())
	d, err := OpenDisk(dir, diskBudget)
	if err != nil {
		t.Fatal(err)
	}
	s.SetDisk(d)
	return s
}

func getPayload(t *testing.T, s *Store, k Key, builds *atomic.Int64) payload {
	t.Helper()
	v, err := Get(s, k, func() (payload, int64, error) {
		if builds != nil {
			builds.Add(1)
		}
		return payload{Name: k.Digest[:8], N: 42}, 64, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDiskWriteReadRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := key("profile", "gzip")
	data := []byte("hello artifact tier")
	if d.Has(k) {
		t.Error("Has before write")
	}
	if err := d.Write(k, data); err != nil {
		t.Fatal(err)
	}
	if !d.Has(k) {
		t.Error("no entry after write")
	}
	if got, want := d.UsedBytes(), int64(diskHeaderSize+len(data)); got != want {
		t.Errorf("UsedBytes = %d, want %d", got, want)
	}
	back, err := d.Read(k)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(data) {
		t.Errorf("read back %q, want %q", back, data)
	}
	// A fresh Disk over the same directory sees the entry (cross-process
	// warm start) and accounts its bytes from the scan.
	d2, err := OpenDisk(d.Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.UsedBytes(); got != int64(diskHeaderSize+len(data)) {
		t.Errorf("rescanned UsedBytes = %d", got)
	}
	if _, err := d2.Read(k); err != nil {
		t.Errorf("fresh Disk cannot read existing entry: %v", err)
	}
}

func TestDiskReadMissing(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(key("profile", "nope")); !isNotExist(err) {
		t.Errorf("missing entry: got %v, want fs.ErrNotExist", err)
	}
}

// TestDiskCorruptionRecovery flips or removes bytes in a stored entry —
// header, body, truncation — and requires detection, deletion, and a
// bit-identical rebuild on the next write/read cycle.
func TestDiskCorruptionRecovery(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"header magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"header length", func(b []byte) []byte { b[8] ^= 0x01; return b }},
		{"stored digest", func(b []byte) []byte { b[16] ^= 0x80; return b }},
		{"body bit flip", func(b []byte) []byte { b[diskHeaderSize+3] ^= 0x10; return b }},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-5] }},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := OpenDisk(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			k := key("profile", "gzip")
			data := []byte("profile bytes profile bytes")
			if err := d.Write(k, data); err != nil {
				t.Fatal(err)
			}
			path := d.path(k)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(raw), 0o600); err != nil {
				t.Fatal(err)
			}
			_, err = d.Read(k)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("corrupt entry read: got %v, want *CorruptError", err)
			}
			if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
				t.Error("corrupt entry not deleted")
			}
			// Rebuild: a fresh write must round-trip bit-identically.
			if err := d.Write(k, data); err != nil {
				t.Fatal(err)
			}
			back, err := d.Read(k)
			if err != nil {
				t.Fatal(err)
			}
			if string(back) != string(data) {
				t.Error("rebuilt entry differs")
			}
		})
	}
}

func TestDiskGCOldestFirst(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100)
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = key("profile", fmt.Sprint("bench", i))
		if err := d.Write(keys[i], data); err != nil {
			t.Fatal(err)
		}
		// Stagger mtimes so age order is unambiguous: keys[0] oldest.
		mt := time.Now().Add(time.Duration(i-10) * time.Minute)
		if err := os.Chtimes(d.path(keys[i]), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	entrySize := int64(diskHeaderSize + len(data))
	// Budget for two entries: GC must delete the two oldest.
	d2, err := OpenDisk(dir, 2*entrySize)
	if err != nil {
		t.Fatal(err)
	}
	evicted := d2.GC()
	if len(evicted) != 2 {
		t.Fatalf("GC evicted %d entries, want 2: %v", len(evicted), evicted)
	}
	for i, k := range []Key{keys[0], keys[1]} {
		if evicted[i] != k {
			t.Errorf("evicted[%d] = %v, want oldest %v", i, evicted[i], k)
		}
	}
	for _, k := range keys[2:] {
		if !d2.Has(k) {
			t.Errorf("newer entry %v evicted", k)
		}
	}
	if got := d2.UsedBytes(); got != 2*entrySize {
		t.Errorf("UsedBytes after GC = %d, want %d", got, 2*entrySize)
	}
}

func TestDiskGCSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	kindDir := filepath.Join(dir, "profile")
	if err := os.MkdirAll(kindDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(kindDir, tmpPrefix+"deadbeef-123")
	fresh := filepath.Join(kindDir, tmpPrefix+"cafef00d-456")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	d.GC()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file not swept")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("in-flight temp file swept")
	}
}

// TestStoreWarmStartFromDisk is the tier contract end to end: a second
// store over the same directory serves Get from disk with zero builds.
func TestStoreWarmStartFromDisk(t *testing.T) {
	dir := t.TempDir()
	k := key("profile", "gzip")

	var builds atomic.Int64
	cold := diskStore(t, dir, 0)
	want := getPayload(t, cold, k, &builds)
	if builds.Load() != 1 {
		t.Fatalf("cold run built %d times", builds.Load())
	}
	cs := cold.Stats().Kinds["profile"]
	if cs.DiskWrites != 1 || cs.DiskMisses != 1 || cs.DiskHits != 0 {
		t.Errorf("cold stats = %+v", cs)
	}

	warm := diskStore(t, dir, 0)
	got := getPayload(t, warm, k, &builds)
	if builds.Load() != 1 {
		t.Fatalf("warm run rebuilt (%d builds total)", builds.Load())
	}
	if got != want {
		t.Errorf("warm value %+v differs from cold %+v", got, want)
	}
	ws := warm.Stats().Kinds["profile"]
	if ws.DiskHits != 1 || ws.Misses != 0 || ws.DiskWrites != 0 {
		t.Errorf("warm stats = %+v", ws)
	}
	if warm.Stats().DiskUsedBytes == 0 {
		t.Error("warm stats report zero disk bytes")
	}
}

// TestStoreRebuildsCorruptDiskEntry corrupts the on-disk entry between
// runs: the warm store must detect it, count a verify failure, rebuild,
// and re-persist — never serve wrong bytes.
func TestStoreRebuildsCorruptDiskEntry(t *testing.T) {
	dir := t.TempDir()
	k := key("profile", "gzip")
	var builds atomic.Int64
	cold := diskStore(t, dir, 0)
	want := getPayload(t, cold, k, &builds)

	path := cold.DiskTier().path(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[diskHeaderSize] ^= 0x40
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}

	warm := diskStore(t, dir, 0)
	got := getPayload(t, warm, k, &builds)
	if got != want {
		t.Errorf("rebuilt value %+v differs from original %+v", got, want)
	}
	if builds.Load() != 2 {
		t.Errorf("corrupt entry: %d builds total, want 2 (cold + rebuild)", builds.Load())
	}
	ws := warm.Stats().Kinds["profile"]
	if ws.VerifyFailures != 1 || ws.Misses != 1 || ws.DiskWrites != 1 {
		t.Errorf("rebuild stats = %+v", ws)
	}
	// Third store: the rebuilt write-through must serve a clean disk hit.
	third := diskStore(t, dir, 0)
	if got := getPayload(t, third, k, &builds); got != want {
		t.Error("third run differs")
	}
	if builds.Load() != 2 {
		t.Error("third run rebuilt despite repaired entry")
	}
}

// TestStoreRejectsUndecodablePayload covers the second validation layer:
// bytes whose digest verifies but whose codec decode fails (a stale
// format) are deleted and rebuilt.
func TestStoreRejectsUndecodablePayload(t *testing.T) {
	dir := t.TempDir()
	k := key("profile", "gzip")
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A well-formed entry whose payload is not a payload JSON document.
	if err := d.Write(k, []byte(`{"Unknown":"field"}`)); err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	s := diskStore(t, dir, 0)
	getPayload(t, s, k, &builds)
	if builds.Load() != 1 {
		t.Error("undecodable payload served without rebuild")
	}
	ks := s.Stats().Kinds["profile"]
	if ks.VerifyFailures != 1 {
		t.Errorf("stats = %+v, want one verify failure", ks)
	}
}

// TestStorePersistResidentRetriesWriteThrough is the drain's second
// persistence attempt: a build whose write-through failed at the
// artifact.disk fault site is resident but not on disk, and
// PersistResident writes it, once.
func TestStorePersistResidentRetriesWriteThrough(t *testing.T) {
	dir := t.TempDir()
	s := diskStore(t, dir, 0)
	k := key("profile", "gzip")

	in := faults.NewInjector(1).Arm(faults.SiteArtifactDisk, faults.Rule{Kind: faults.Transient, Rate: 1, Max: 1})
	faults.Set(in)
	defer faults.Set(nil)
	getPayload(t, s, k, nil)
	if in.Fired(faults.SiteArtifactDisk) != 1 {
		t.Fatalf("fault fired %d times, want 1 (the write-through)", in.Fired(faults.SiteArtifactDisk))
	}
	if s.DiskTier().Has(k) || s.Stats().Kinds["profile"].DiskWrites != 0 {
		t.Fatalf("write-through survived its injected fault: stats %+v", s.Stats().Kinds["profile"])
	}

	s.PersistResident()
	if !s.DiskTier().Has(k) {
		t.Fatal("PersistResident did not write the resident artifact")
	}
	if got := s.Stats().Kinds["profile"].DiskWrites; got != 1 {
		t.Errorf("disk writes = %d after PersistResident, want 1", got)
	}
	var builds atomic.Int64
	fresh := diskStore(t, dir, 0)
	getPayload(t, fresh, k, &builds)
	if builds.Load() != 0 || fresh.Stats().Kinds["profile"].DiskHits != 1 {
		t.Errorf("fresh store: %d builds, stats %+v, want a disk hit", builds.Load(), fresh.Stats().Kinds["profile"])
	}

	s.PersistResident()
	if got := s.Stats().Kinds["profile"].DiskWrites; got != 1 {
		t.Errorf("disk writes = %d after a second PersistResident, want still 1", got)
	}
}

// TestStoreDiskGCCounters drives the disk budget low enough that the
// write-through GC evicts, and checks the per-kind counter.
func TestStoreDiskGCCounters(t *testing.T) {
	dir := t.TempDir()
	// Each JSON payload entry is ~48+30 bytes; budget for ~one entry.
	s := diskStore(t, dir, 100)
	for i := 0; i < 4; i++ {
		k := key("profile", fmt.Sprint("bench", i))
		getPayload(t, s, k, nil)
	}
	ks := s.Stats().Kinds["profile"]
	if ks.DiskGCEvictions == 0 {
		t.Errorf("stats = %+v, want disk GC evictions", ks)
	}
	if used, budget := s.DiskTier().UsedBytes(), int64(100); used > budget {
		t.Errorf("disk used %d over budget %d after GC", used, budget)
	}
}

// TestDiskConcurrentStores runs two Store instances over one directory
// from many goroutines (the in-process model of two processes sharing a
// cache). Values must be correct everywhere and the directory must end
// consistent; run under -race this also proves the locking.
func TestDiskConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	stores := [2]*Store{diskStore(t, dir, 0), diskStore(t, dir, 0)}

	const goroutines = 8
	const keysN = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := stores[g%2]
			for i := 0; i < keysN; i++ {
				k := key("profile", fmt.Sprint("bench", i))
				v, err := Get(s, k, func() (payload, int64, error) {
					return payload{Name: k.Digest[:8], N: 42}, 64, nil
				})
				if err != nil {
					errs <- err
					return
				}
				if v.Name != k.Digest[:8] {
					errs <- fmt.Errorf("wrong value for %v: %+v", k, v)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every key must have landed exactly one verified entry.
	d, err := OpenDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keysN; i++ {
		k := key("profile", fmt.Sprint("bench", i))
		if _, err := d.Read(k); err != nil {
			t.Errorf("entry %v unreadable after concurrent churn: %v", k, err)
		}
	}
}

// TestDiskFaultInjection arms every failure mode at artifact.disk:
// transient write/read faults and in-flight payload corruption. Gets must
// always succeed (persistence is best-effort, corrupt readbacks rebuild),
// and once the injector is disarmed every surviving file must verify.
func TestDiskFaultInjection(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			dir := t.TempDir()
			in := faults.NewInjector(seed).
				Arm(faults.SiteArtifactDisk, faults.Rule{Kind: faults.Transient, Rate: 0.3}).
				Arm(faults.SiteArtifactDisk, faults.Rule{Kind: faults.Corrupt, Rate: 0.3})
			faults.Set(in)
			defer faults.Set(nil)

			for round := 0; round < 2; round++ {
				s := diskStore(t, dir, 0)
				for i := 0; i < 5; i++ {
					k := key("profile", fmt.Sprint("bench", i))
					v, err := Get(s, k, func() (payload, int64, error) {
						return payload{Name: k.Digest[:8], N: 42}, 64, nil
					})
					if err != nil {
						t.Fatalf("round %d: Get under faults failed: %v", round, err)
					}
					if v.Name != k.Digest[:8] {
						t.Fatalf("round %d: wrong value %+v", round, v)
					}
				}
			}
			if in.Fired(faults.SiteArtifactDisk) == 0 {
				t.Error("no faults fired")
			}

			// A Corrupt-rule write deliberately lands mangled bytes under a
			// clean rename (the torn-write model), so surviving files need
			// not all verify — but every one must either verify or be
			// detected as corrupt and deleted, never read back wrong.
			faults.Set(nil)
			d, err := OpenDisk(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			entries, _, err := d.scan()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				_, err := d.Read(e.key)
				var ce *CorruptError
				if err != nil && !errors.As(err, &ce) {
					t.Errorf("entry %v: %v", e.key, err)
				}
				if errors.As(err, &ce) {
					if _, statErr := os.Stat(e.path); !os.IsNotExist(statErr) {
						t.Errorf("corrupt entry %v not deleted", e.key)
					}
				}
			}
		})
	}
}

// TestDiskCrossProcess shares one cache directory with real child
// processes: the test binary re-execs itself (the ARTIFACT_DISK_CHILD
// branch below) so OS-level atomicity — O_EXCL temps, rename, rescan —
// is exercised across process boundaries, not just goroutines. A cold
// child populates the directory; two concurrent warm children must then
// serve every key from disk with zero builds.
func TestDiskCrossProcess(t *testing.T) {
	const keysN = 5
	if dir := os.Getenv("ARTIFACT_DISK_CHILD"); dir != "" {
		s := New()
		s.RegisterCodec("profile", payloadCodec())
		d, err := OpenDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.SetDisk(d)
		for i := 0; i < keysN; i++ {
			k := key("profile", fmt.Sprint("bench", i))
			v, err := Get(s, k, func() (payload, int64, error) {
				return payload{Name: k.Digest[:8], N: 42}, 64, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if v.Name != k.Digest[:8] {
				t.Fatalf("wrong value for %v: %+v", k, v)
			}
		}
		out, err := json.Marshal(s.Stats().Kinds["profile"])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("CHILD_STATS %s\n", out)
		return
	}

	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot find test binary: %v", err)
	}
	dir := t.TempDir()
	spawn := func() ([]byte, error) {
		cmd := exec.Command(exe, "-test.run", "^TestDiskCrossProcess$", "-test.v")
		cmd.Env = append(os.Environ(), "ARTIFACT_DISK_CHILD="+dir)
		return cmd.CombinedOutput()
	}
	childStats := func(out []byte) (KindStats, error) {
		var ks KindStats
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(line, "CHILD_STATS "); ok {
				return ks, json.Unmarshal([]byte(rest), &ks)
			}
		}
		return ks, fmt.Errorf("no CHILD_STATS line in output:\n%s", out)
	}

	cold, err := spawn()
	if err != nil {
		t.Fatalf("cold child failed: %v\n%s", err, cold)
	}
	ks, err := childStats(cold)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Misses != keysN || ks.DiskWrites != keysN {
		t.Errorf("cold child stats = %+v", ks)
	}

	type res struct {
		out []byte
		err error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			out, err := spawn()
			results <- res{out, err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("warm child failed: %v\n%s", r.err, r.out)
		}
		ks, err := childStats(r.out)
		if err != nil {
			t.Fatal(err)
		}
		if ks.Misses != 0 || ks.DiskHits != keysN {
			t.Errorf("warm child stats = %+v (want 0 builds, %d disk hits)", ks, keysN)
		}
	}
}
