package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
)

// Disk is the persistent tier of the artifact store: a content-addressed
// on-disk cache whose filenames are the in-memory store's keys
// (<dir>/<kind>/<digest>). It is safe to share one directory between
// concurrent processes:
//
//   - Writes go to an O_EXCL temp file in the same directory and land via
//     atomic rename, so a reader never observes a half-written entry under
//     a final name, and two writers racing on one key both leave a
//     complete, identical file (artifacts are pure functions of their
//     spec, so last-rename-wins is harmless).
//   - Every entry embeds a CRC-32C of its payload (hardware-accelerated on
//     the platforms this repository targets, so verification costs a small
//     fraction of the decode it guards); Read re-hashes on the way in and
//     deletes any entry that fails verification, so a torn or bit-flipped
//     file degrades to a rebuild, never a wrong answer.
//   - GC rescans the directory before evicting, so entries written by
//     other processes are accounted (and aged) correctly.
//
// A Disk does essentially no in-memory bookkeeping beyond an approximate
// byte total; coordination between processes happens entirely through the
// filesystem.
type Disk struct {
	dir    string
	budget int64

	mu   sync.Mutex
	used int64 // approximate; corrected by each GC rescan
}

// Entry header: magic, format version, payload length, payload CRC-32C.
const (
	diskMagic      = 0x64617274 // "dart"
	diskVersion    = 1
	diskHeaderSize = 4 + 4 + 8 + 4
)

// crcTable is the Castagnoli polynomial, chosen over IEEE because Go's
// implementation uses the dedicated CPU instruction where available.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// tmpPrefix marks in-flight temp files. They are invisible to Read (no
// key resolves to them) and stale ones are swept by GC.
const tmpPrefix = ".tmp-"

// staleTempAge is how old an orphaned temp file (a crashed or
// fault-injected writer) must be before GC removes it.
const staleTempAge = 10 * time.Minute

// CorruptError reports an entry that failed integrity verification on
// readback. The entry has already been deleted when the error is
// returned; the caller's recovery is a rebuild.
type CorruptError struct {
	Key    Key
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("artifact: disk entry %s failed verification: %s", e.Key, e.Reason)
}

// OpenDisk opens (creating if needed) a disk tier rooted at dir, bounded
// to budgetBytes of entry data (0 = unlimited).
func OpenDisk(dir string, budgetBytes int64) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: disk cache dir is empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: opening disk cache: %w", err)
	}
	d := &Disk{dir: dir, budget: budgetBytes}
	entries, _, err := d.scan()
	if err != nil {
		return nil, err
	}
	var used int64
	for _, e := range entries {
		used += e.size
	}
	d.used = used
	return d, nil
}

// Dir returns the cache directory.
func (d *Disk) Dir() string { return d.dir }

// Budget returns the configured disk byte budget (0 = unlimited).
func (d *Disk) Budget() int64 { return d.budget }

// UsedBytes returns the approximate bytes of entry data on disk.
func (d *Disk) UsedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// path maps a key to its entry file.
func (d *Disk) path(key Key) string {
	return filepath.Join(d.dir, string(key.Kind), key.Digest)
}

// Has reports whether an entry exists under the key's filename (without
// verifying its integrity — Read does that).
func (d *Disk) Has(key Key) bool {
	_, err := os.Stat(d.path(key))
	return err == nil
}

// Write persists payload under key: header + payload to an O_EXCL temp
// file in the entry's directory, then atomic rename to the final name.
// A failure leaves no entry under the final name (and the error is
// recoverable by definition: the in-memory artifact is unaffected).
func (d *Disk) Write(key Key, payload []byte) error {
	if err := faults.Fire(faults.SiteArtifactDisk); err != nil {
		return fmt.Errorf("artifact: disk write %s: %w", key, err)
	}
	sum := crc32.Checksum(payload, crcTable)
	if faults.Enabled() {
		// Model a torn or corrupted write: the digest above is already
		// fixed, so a mangled copy lands on disk with a mismatched hash
		// that readback verification must catch.
		cp := append([]byte(nil), payload...)
		if faults.Mangle(faults.SiteArtifactDisk, cp) {
			payload = cp
		}
	}

	kindDir := filepath.Join(d.dir, string(key.Kind))
	if err := os.MkdirAll(kindDir, 0o755); err != nil {
		return fmt.Errorf("artifact: disk write %s: %w", key, err)
	}
	// CreateTemp opens with O_EXCL, so concurrent writers (same or other
	// process) each own a distinct temp file.
	f, err := os.CreateTemp(kindDir, tmpPrefix+key.Digest+"-*")
	if err != nil {
		return fmt.Errorf("artifact: disk write %s: %w", key, err)
	}
	tmp := f.Name()
	var hdr [diskHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], diskMagic)
	binary.LittleEndian.PutUint32(hdr[4:], diskVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:], sum)
	_, werr := f.Write(hdr[:])
	if werr == nil {
		_, werr = f.Write(payload)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		// A second firing opportunity models rename failure: the temp file
		// is complete but never becomes visible.
		werr = faults.Fire(faults.SiteArtifactDisk)
	}
	if werr == nil {
		werr = os.Rename(tmp, d.path(key))
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("artifact: disk write %s: %w", key, werr)
	}

	d.mu.Lock()
	d.used += int64(diskHeaderSize + len(payload))
	d.mu.Unlock()
	return nil
}

// Read returns the verified payload stored under key. It returns an
// error wrapping fs.ErrNotExist when no entry exists, and a
// *CorruptError — after deleting the entry — when verification fails;
// both degrade to a rebuild at the store layer.
func (d *Disk) Read(key Key) ([]byte, error) {
	data, err := d.ReadFramed(key)
	if err != nil {
		return nil, err
	}
	return data[diskHeaderSize:], nil
}

// ReadFramed returns the verified entry stored under key as its complete
// framed image, header included. The on-disk entry format and the
// remote-cache wire format are the same framing (see Frame), so a server
// can write the image straight to the wire without unframing and
// re-framing. Error semantics match Read.
func (d *Disk) ReadFramed(key Key) ([]byte, error) {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return nil, err
	}
	if err := faults.Fire(faults.SiteArtifactDisk); err != nil {
		// An injected read fault is a degraded lookup, not corruption:
		// leave the entry alone and let the caller rebuild.
		return nil, fmt.Errorf("artifact: disk read %s: %w", key, err)
	}
	// data is a private copy, so mangling models corruption without
	// touching the file (the entry's deletion below is what removes it).
	faults.Mangle(faults.SiteArtifactDisk, data)
	if _, reason := verifyEntry(data); reason != "" {
		d.remove(key)
		return nil, &CorruptError{Key: key, Reason: reason}
	}
	return data, nil
}

// Frame wraps payload in the disk tier's entry format (magic, version,
// length, CRC-32C of the payload). The same framing travels over the
// remote-cache wire (the daemon's /v1/artifact export to
// internal/client), so transport corruption is caught by exactly the
// machinery that catches disk corruption.
func Frame(payload []byte) []byte {
	out := make([]byte, diskHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(out[0:], diskMagic)
	binary.LittleEndian.PutUint32(out[4:], diskVersion)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:], crc32.Checksum(payload, crcTable))
	copy(out[diskHeaderSize:], payload)
	return out
}

// Unframe verifies a framed image (see Frame) and returns its payload,
// aliasing data. It returns an error naming the first integrity failure.
func Unframe(data []byte) ([]byte, error) {
	payload, reason := verifyEntry(data)
	if reason != "" {
		return nil, fmt.Errorf("artifact: frame verification failed: %s", reason)
	}
	return payload, nil
}

// verifyEntry checks an entry image end to end and returns its payload,
// or a non-empty reason describing the first integrity failure.
func verifyEntry(data []byte) (payload []byte, reason string) {
	if len(data) < diskHeaderSize {
		return nil, fmt.Sprintf("truncated header (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != diskMagic {
		return nil, fmt.Sprintf("bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != diskVersion {
		return nil, fmt.Sprintf("unsupported entry version %d", v)
	}
	n := binary.LittleEndian.Uint64(data[8:])
	if n != uint64(len(data)-diskHeaderSize) {
		return nil, fmt.Sprintf("payload length %d, have %d bytes", n, len(data)-diskHeaderSize)
	}
	payload = data[diskHeaderSize:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[16:]) {
		return nil, "payload digest mismatch"
	}
	return payload, ""
}

// remove deletes an entry file and adjusts the accounting.
func (d *Disk) remove(key Key) {
	st, err := os.Stat(d.path(key))
	if err != nil {
		return
	}
	if os.Remove(d.path(key)) == nil {
		d.mu.Lock()
		d.used -= st.Size()
		if d.used < 0 {
			d.used = 0
		}
		d.mu.Unlock()
	}
}

// diskEntry is one scanned entry file.
type diskEntry struct {
	key   Key
	path  string
	size  int64
	mtime time.Time
}

// scan walks the cache directory, returning every entry file plus any
// stale temp files (in-flight writers abandoned by a crash or an injected
// rename failure).
func (d *Disk) scan() (entries []diskEntry, staleTemps []string, err error) {
	kinds, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("artifact: scanning disk cache: %w", err)
	}
	now := time.Now()
	for _, kd := range kinds {
		if !kd.IsDir() {
			continue
		}
		kind := Kind(kd.Name())
		files, err := os.ReadDir(filepath.Join(d.dir, kd.Name()))
		if err != nil {
			continue // raced with a concurrent GC; the rescan heals it
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // deleted between ReadDir and Info
			}
			path := filepath.Join(d.dir, kd.Name(), f.Name())
			if strings.HasPrefix(f.Name(), tmpPrefix) {
				if now.Sub(info.ModTime()) > staleTempAge {
					staleTemps = append(staleTemps, path)
				}
				continue
			}
			entries = append(entries, diskEntry{
				key:   Key{Kind: kind, Digest: f.Name()},
				path:  path,
				size:  info.Size(),
				mtime: info.ModTime(),
			})
		}
	}
	return entries, staleTemps, nil
}

// GC enforces the disk budget: when the directory holds more entry bytes
// than the budget allows, the oldest entries (by modification time, which
// for never-rewritten content-addressed entries is write order) are
// deleted until the total fits. It rescans the directory first, so
// entries written by other processes sharing the cache are aged on equal
// footing. It returns the keys evicted by this call.
func (d *Disk) GC() []Key {
	if d.budget <= 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, staleTemps, err := d.scan()
	if err != nil {
		return nil
	}
	for _, p := range staleTemps {
		os.Remove(p)
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	d.used = total
	if total <= d.budget {
		return nil
	}
	// Oldest first; ties break on path so concurrent GCs in different
	// processes converge on the same victims.
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	var evicted []Key
	for _, e := range entries {
		if d.used <= d.budget {
			break
		}
		if err := os.Remove(e.path); err != nil && !isNotExist(err) {
			continue
		}
		// Removed here or already removed by a racing GC: either way the
		// bytes are gone from the directory.
		d.used -= e.size
		evicted = append(evicted, e.key)
	}
	if d.used < 0 {
		d.used = 0
	}
	return evicted
}

func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
