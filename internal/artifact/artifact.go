// Package artifact is a typed, content-addressed derivation cache: every
// value the experiment engine computes — emulated and analyzed trace
// profiles, their facts, predictor evaluations, machine runs — is an
// artifact addressed by its kind and a canonical digest of the full input
// spec that produced it. The store provides single-flight computation
// (concurrent requesters of one artifact block on one producer) and
// per-kind hit/miss/in-flight counters, so sweep-heavy workloads reuse
// work across experiments. A completed artifact stays resident for the
// life of its store.
//
// Artifacts are pure functions of their spec: a rebuild in a fresh store
// must be bit-identical to the original, which is what lets a disk or
// remote copy stand in for a build.
//
// A store may additionally be backed by a persistent disk tier (SetDisk):
// kinds with a registered Codec write through to a content-addressed
// on-disk cache on build, and cold misses load from disk instead of
// rebuilding. PersistResident retries the write-through of anything
// resident that is missing from disk. Disk entries are
// integrity-verified on readback and the disk tier is safe to share
// between concurrent processes; see Disk.
//
// A third, remote tier (SetRemote) sits behind memory and disk: cold
// misses that both inner tiers miss are fetched from a remote cache (an
// HTTP daemon, see internal/client). The remote tier is read-only, so
// every artifact enters a store through GetCtx — built, read from disk,
// or fetched. Remote payloads reuse the disk tier's framed encoding, so
// integrity is CRC-verified end to end and a corrupt fetch degrades to a
// local rebuild.
//
// Builds run on a detached context owned by the set of requesters
// currently waiting on them: when one requester disconnects, surviving
// waiters adopt the in-flight build (counted in KindStats.Adoptions)
// instead of watching it die with its originator and re-running it; only
// when the last waiter leaves is the build cancelled, and a requester
// that arrives after that starts a fresh build rather than joining the
// dying one.
package artifact

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/faults"
)

// ErrNotFound reports that no artifact (resident or on disk) exists under
// a key, from EncodedFrame.
var ErrNotFound = errors.New("artifact: not found")

// Kind names one artifact type; Stats counts per kind.
type Kind string

// Key is an artifact's content address: its kind plus the canonical
// digest of the full input spec that produces it.
type Key struct {
	Kind   Kind
	Digest string
}

func (k Key) String() string { return string(k.Kind) + ":" + k.Digest }

// Digest canonically fingerprints an input spec. Specs must be plain
// exported data (JSON is the stable canonical encoding, as it is for
// pipeline.Config.Digest); two specs describing the same inputs produce
// equal digests.
func Digest(spec any) string {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("artifact: spec not digestible: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// KindStats is the per-kind counter snapshot carried by Stats.
type KindStats struct {
	// Hits counts requests served from an existing artifact, including
	// requesters that waited on an in-flight build (so Hits+Misses is
	// schedule-independent; InflightWaits breaks out the waiters).
	Hits int64 `json:"hits"`
	// Misses counts builds actually executed (including rebuilds after
	// a forgotten failure).
	Misses int64 `json:"misses"`
	// InflightWaits counts requesters that blocked on another goroutine's
	// in-flight build of the same artifact.
	InflightWaits int64 `json:"inflight_waits"`

	// Disk-tier counters, populated only when the store has a persistent
	// tier and a codec for the kind. DiskHits counts requests served by
	// loading a verified disk entry (those do NOT count as Misses: no
	// build ran). DiskMisses counts disk lookups that found nothing
	// usable, DiskWrites successful persists, VerifyFailures entries
	// rejected (and deleted) by integrity verification, and
	// DiskGCEvictions entries deleted by the disk byte-budget GC.
	DiskHits        int64 `json:"disk_hits,omitempty"`
	DiskMisses      int64 `json:"disk_misses,omitempty"`
	DiskWrites      int64 `json:"disk_writes,omitempty"`
	VerifyFailures  int64 `json:"disk_verify_failures,omitempty"`
	DiskGCEvictions int64 `json:"disk_gc_evictions,omitempty"`

	// Adoptions counts in-flight builds handed off to surviving waiters
	// after a requester (including the one that started the build)
	// disconnected — each adopted build is one avoided re-run.
	Adoptions int64 `json:"adoptions,omitempty"`

	// Remote-tier counters, populated only when the store has a remote
	// tier and a codec for the kind. RemoteHits counts requests served by
	// a verified remote fetch (not Misses: no build ran), RemoteMisses
	// remote lookups that found nothing, and RemoteFailures transport,
	// verification, or decode errors (each of which degrades to a local
	// rebuild).
	RemoteHits     int64 `json:"remote_hits,omitempty"`
	RemoteMisses   int64 `json:"remote_misses,omitempty"`
	RemoteFailures int64 `json:"remote_failures,omitempty"`
}

// RemoteTier is a read-only remote artifact cache (the third tier,
// behind memory and disk). Fetch returns the framed-and-verified payload
// for key, with found=false for a clean miss. Implementations must
// verify payload integrity on fetch (see internal/client); the store
// treats any error as a degraded lookup and rebuilds locally.
type RemoteTier interface {
	Fetch(key Key) (payload []byte, found bool, err error)
}

// Stats is a snapshot of the store.
type Stats struct {
	Kinds map[Kind]KindStats `json:"kinds"`
	// DiskUsedBytes/DiskBudgetBytes describe the persistent tier when one
	// is attached (see SetDisk).
	DiskUsedBytes   int64 `json:"disk_used_bytes,omitempty"`
	DiskBudgetBytes int64 `json:"disk_budget_bytes,omitempty"`
}

// entry is one artifact slot: in-flight until done is closed, then either
// a resident value or a memoized error.
type entry struct {
	key  Key
	done chan struct{}

	// Written by the builder before done closes, read-only after.
	val        any
	err        error
	fromDisk   bool // loaded from the persistent tier, already on disk
	fromRemote bool // fetched from the remote tier (disk copy warmed on the way in)

	// buildCancel aborts the detached build context; called by the last
	// waiter to disconnect, and by the builder itself on completion.
	buildCancel context.CancelFunc

	// Guarded by the store lock.
	waiters  int  // requesters blocked on the in-flight build
	adopted  bool // a requester left while others stayed (counted once)
	resident bool // completed and indexed
}

// Store is a content-addressed artifact cache with single-flight
// computation. The zero value is unusable; create with New.
type Store struct {
	mu    sync.Mutex
	items map[Key]*entry
	stats map[Kind]*KindStats
	// Persistent tier (nil = memory only), remote tier (nil = none), and
	// the per-kind codec registry deciding which kinds they carry.
	disk   *Disk
	remote RemoteTier
	codecs map[Kind]Codec
}

// New creates an empty store.
func New() *Store {
	return &Store{
		items: make(map[Key]*entry),
		stats: make(map[Kind]*KindStats),
	}
}

// RegisterCodec makes kind persistable through the disk tier. Register
// codecs (and attach the disk with SetDisk) before first use: kinds
// without a codec are never written to or read from disk.
func (s *Store) RegisterCodec(kind Kind, c Codec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.codecs == nil {
		s.codecs = make(map[Kind]Codec)
	}
	s.codecs[kind] = c
}

// SetDisk attaches a persistent disk tier (nil detaches). With a tier
// attached, kinds with a registered codec write through on build and
// satisfy cold misses from disk. Set before first use.
func (s *Store) SetDisk(d *Disk) {
	s.mu.Lock()
	s.disk = d
	s.mu.Unlock()
}

// DiskTier returns the attached persistent tier, or nil.
func (s *Store) DiskTier() *Disk {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disk
}

// SetRemote attaches a read-only remote cache tier (nil detaches). With
// a tier attached, kinds with a registered codec are fetched remotely
// when both memory and disk miss (a verified fetch also warms the disk
// tier). Set before first use.
func (s *Store) SetRemote(r RemoteTier) {
	s.mu.Lock()
	s.remote = r
	s.mu.Unlock()
}

// RemoteTierAttached reports whether a remote tier is attached.
func (s *Store) RemoteTierAttached() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.remote != nil
}

// Stats snapshots the per-kind counters and, with a disk tier attached,
// its used and budget bytes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{Kinds: make(map[Kind]KindStats, len(s.stats))}
	for k, ks := range s.stats {
		out.Kinds[k] = *ks
	}
	if s.disk != nil {
		// Lock order Store.mu → Disk.mu is safe: the disk tier never
		// calls back into the store.
		out.DiskBudgetBytes = s.disk.Budget()
		out.DiskUsedBytes = s.disk.UsedBytes()
	}
	return out
}

// bump applies one update to kind k's counters; call without s.mu held.
func (s *Store) bump(k Kind, inc func(*KindStats)) {
	s.mu.Lock()
	inc(s.kindStats(k))
	s.mu.Unlock()
}

// kindStats returns the mutable per-kind counters; call with s.mu held.
func (s *Store) kindStats(k Kind) *KindStats {
	ks := s.stats[k]
	if ks == nil {
		ks = &KindStats{}
		s.stats[k] = ks
	}
	return ks
}

// Get returns the artifact at key, computing it with build at most once
// no matter how many goroutines ask concurrently. It is GetCtx with a
// background context: the requester never disconnects, so it always
// waits the build out.
func Get[T any](s *Store, key Key, build func() (T, error)) (T, error) {
	return GetCtx(s, context.Background(), key, func(context.Context) (T, error) {
		return build()
	})
}

// GetCtx returns the artifact at key, computing it with build at most
// once no matter how many goroutines ask concurrently. A completed
// artifact stays resident for the life of the store, so the value stays
// valid however long the caller holds it.
//
// The build runs on a goroutine of its own under a detached context that
// is cancelled only when the last interested requester has disconnected:
// if ctx is cancelled while other requesters still wait on the same
// in-flight build, they adopt it (counted once per build in
// KindStats.Adoptions) and the build keeps running for them; GetCtx then
// returns ctx.Err() to the departed requester. Once the last requester
// has left, the next one starts a fresh build; a late success of the
// abandoned build is dropped, not cached. The build callback receives
// that detached context, not ctx.
//
// A build error is propagated to every concurrent requester. It stays
// memoized only if it is deterministic, since a rebuild would fail again:
// a transient fault (faults.IsTransient), a cancelled or expired build,
// and a panic anywhere in the error's chain (faults.IsPanic) are
// forgotten, so the next request rebuilds. A panicking build is
// converted to an error, so waiters are not deadlocked; its chain
// reaches an error panic value (see faults.Recovered).
func GetCtx[T any](s *Store, ctx context.Context, key Key, build func(context.Context) (T, error)) (T, error) {
	s.mu.Lock()
	e, ok := s.items[key]
	if ok {
		building := false
		select {
		case <-e.done:
		default:
			building = true
		}
		ks := s.kindStats(key.Kind)
		ks.Hits++
		if building {
			ks.InflightWaits++
			e.waiters++
		}
		s.mu.Unlock()
		if building {
			if err := s.waitBuild(ctx, e); err != nil {
				var zero T
				return zero, err
			}
		}
		return finishGet[T](e)
	}

	// The build context is detached from the requester deliberately:
	// ownership belongs to the waiter set (refcounted via e.waiters), not
	// to whichever request happened to arrive first.
	bctx, cancel := context.WithCancel(context.Background())
	e = &entry{key: key, done: make(chan struct{}), waiters: 1, buildCancel: cancel}
	s.items[key] = e
	codec := s.codecs[key.Kind]
	disk := s.disk
	remote := s.remote
	s.mu.Unlock()

	go s.runBuild(e, bctx, disk, remote, codec, func(bctx context.Context) (any, error) {
		return build(bctx)
	})

	if err := s.waitBuild(ctx, e); err != nil {
		var zero T
		return zero, err
	}
	return finishGet[T](e)
}

// runBuild executes one detached single-flight build: disk tier, then
// remote tier, then the build callback. It is the only writer of the
// entry's value fields until done closes.
func (s *Store) runBuild(e *entry, bctx context.Context, disk *Disk, remote RemoteTier, codec Codec, build func(context.Context) (any, error)) {
	key := e.key
	func() {
		defer func() {
			if r := recover(); r != nil {
				// The one panic boundary for builds. Surface the panic as an
				// error so every waiter unblocks instead of deadlocking on
				// done; it is never memoized.
				e.val = nil
				e.err = faults.Recovered(fmt.Sprintf("artifact: building %s panicked", key), r)
			}
		}()
		if disk != nil && codec != nil {
			if v, ok := s.diskLoad(key, disk, codec); ok {
				e.val, e.fromDisk = v, true
				return
			}
			s.bump(key.Kind, func(ks *KindStats) { ks.DiskMisses++ })
		}
		if remote != nil && codec != nil {
			if v, ok := s.remoteLoad(key, remote, codec, disk); ok {
				e.val, e.fromRemote = v, true
				return
			}
		}
		// Misses counts builds actually executed, so a disk or remote hit
		// above does not register one: "zero misses" on a warm run means
		// zero rebuilds.
		s.bump(key.Kind, func(ks *KindStats) { ks.Misses++ })
		e.val, e.err = build(bctx)
	}()
	e.buildCancel()

	s.mu.Lock()
	// An entry its last waiter abandoned is no longer indexed (see
	// waitBuild): nobody can read its value, so it is neither memoized
	// nor resident.
	indexed := s.items[key] == e
	if e.err != nil {
		forget := faults.IsPanic(e.err) || faults.IsTransient(e.err) ||
			errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)
		if forget && indexed {
			delete(s.items, key)
		}
	} else if indexed {
		e.resident = true
	}
	s.mu.Unlock()
	// Write through before done closes, so a requester that sees the value
	// also sees its disk entry. A disk hit is already there, and a remote
	// hit lands on disk inside remoteLoad, payload intact.
	if indexed && e.err == nil && !e.fromDisk && !e.fromRemote && disk != nil && codec != nil {
		s.persist(key, e.val, disk, codec)
	}
	close(e.done)
}

// waitBuild blocks until e's in-flight build completes (returning nil)
// or ctx is cancelled first. On cancellation it drops the caller's
// waiter slot: if other waiters survive they adopt the build; if the
// caller was the last, the entry leaves the index and the detached build
// context is cancelled, so the build dies promptly and nobody else joins
// it.
func (s *Store) waitBuild(ctx context.Context, e *entry) error {
	select {
	case <-e.done:
		s.mu.Lock()
		e.waiters--
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	select {
	case <-e.done:
		// The build completed while we noticed the cancellation; serving
		// the finished value is strictly better than an error.
		e.waiters--
		s.mu.Unlock()
		return nil
	default:
	}
	e.waiters--
	last := e.waiters == 0
	if last && !e.resident && s.items[e.key] == e {
		// Unindex the cancelled build, so the next requester starts a
		// fresh one instead of joining it. A resident entry finished in
		// time and stays cached.
		delete(s.items, e.key)
	}
	if !last && !e.adopted {
		e.adopted = true
		s.kindStats(e.key.Kind).Adoptions++
	}
	s.mu.Unlock()
	if last {
		e.buildCancel()
	}
	return ctx.Err()
}

// diskLoad tries to satisfy a cold miss from the persistent tier. It
// reports ok only for an entry that passed integrity verification and
// decoded cleanly; any failure (including a corrupt entry, which Read has
// already deleted) degrades to a rebuild.
func (s *Store) diskLoad(key Key, d *Disk, c Codec) (v any, ok bool) {
	payload, err := d.Read(key)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			s.bump(key.Kind, func(ks *KindStats) { ks.VerifyFailures++ })
		}
		return nil, false
	}
	v, err = c.Decode(payload)
	if err != nil {
		// The bytes were intact (digest verified) but the codec rejected
		// them — a stale format from another build of the code. Delete so
		// the rebuild's write-through replaces it.
		d.remove(key)
		s.bump(key.Kind, func(ks *KindStats) { ks.VerifyFailures++ })
		return nil, false
	}
	s.bump(key.Kind, func(ks *KindStats) { ks.DiskHits++ })
	return v, true
}

// persist writes an artifact through to the disk tier (if not already
// present) and runs the byte-budget GC. Persistence is best-effort: a
// failed write leaves the in-memory artifact untouched.
func (s *Store) persist(key Key, v any, d *Disk, c Codec) {
	if d.Has(key) {
		return
	}
	payload, err := encodeToBytes(c, v)
	if err != nil {
		return
	}
	if err := d.Write(key, payload); err != nil {
		return
	}
	s.bump(key.Kind, func(ks *KindStats) { ks.DiskWrites++ })
	for _, k := range d.GC() {
		s.bump(k.Kind, func(ks *KindStats) { ks.DiskGCEvictions++ })
	}
}

// remoteLoad tries to satisfy a cold miss from the remote tier. A
// verified fetch also warms the disk tier with the raw payload (counted
// as a disk write), so the next cold start in this process needs no
// network at all. Any failure — transport, verification, codec — is a
// degraded lookup that falls back to a local build.
func (s *Store) remoteLoad(key Key, r RemoteTier, c Codec, d *Disk) (v any, ok bool) {
	payload, found, err := r.Fetch(key)
	if err != nil {
		s.bump(key.Kind, func(ks *KindStats) { ks.RemoteFailures++ })
		return nil, false
	}
	if !found {
		s.bump(key.Kind, func(ks *KindStats) { ks.RemoteMisses++ })
		return nil, false
	}
	v, err = c.Decode(payload)
	if err != nil {
		s.bump(key.Kind, func(ks *KindStats) { ks.RemoteFailures++ })
		return nil, false
	}
	s.bump(key.Kind, func(ks *KindStats) { ks.RemoteHits++ })
	if d != nil && !d.Has(key) {
		if err := d.Write(key, payload); err == nil {
			s.bump(key.Kind, func(ks *KindStats) { ks.DiskWrites++ })
			for _, k := range d.GC() {
				s.bump(k.Kind, func(ks *KindStats) { ks.DiskGCEvictions++ })
			}
		}
	}
	return v, true
}

// EncodedFrame returns the CRC-framed wire image for key. A resident
// artifact is encoded and the copy framed; otherwise the disk tier's
// entry is served as read with spilled=true — the framed bytes on disk
// ARE the wire format, so the spill-through path performs no decode,
// re-encode, or frame copy. ErrNotFound when neither tier holds the
// artifact.
func (s *Store) EncodedFrame(key Key) (framed []byte, spilled bool, err error) {
	s.mu.Lock()
	codec := s.codecs[key.Kind]
	disk := s.disk
	e, ok := s.items[key]
	if ok {
		select {
		case <-e.done:
			ok = e.err == nil
		default:
			ok = false // in-flight; fall through to disk
		}
	}
	if ok && codec != nil {
		s.mu.Unlock()
		payload, err := encodeToBytes(codec, e.val)
		if err != nil {
			return nil, false, err
		}
		return Frame(payload), false, nil
	}
	s.mu.Unlock()
	if codec == nil {
		return nil, false, ErrNotFound
	}
	if disk != nil {
		if framed, err := disk.ReadFramed(key); err == nil {
			return framed, true, nil
		}
	}
	return nil, false, ErrNotFound
}

// finishGet reads a completed entry.
func finishGet[T any](e *entry) (T, error) {
	var zero T
	if e.err != nil {
		return zero, e.err
	}
	v, ok := e.val.(T)
	if !ok {
		// Two different value types under one key is a caller bug; fail
		// loudly rather than corrupting the typed contract.
		return zero, fmt.Errorf("artifact: %s holds %T, requested %T", e.key, e.val, v)
	}
	return v, nil
}

// PersistResident writes every completed resident artifact whose kind
// has a codec and whose disk entry is missing through to the disk tier,
// so a write-through that failed at build time gets a second attempt.
// Entries that are already on disk cost one stat each. The daemon calls
// it during graceful drain, so warm state survives a restart; it is a
// no-op without a disk tier.
func (s *Store) PersistResident() {
	type pending struct {
		e     *entry
		codec Codec
	}
	s.mu.Lock()
	disk := s.disk
	var todo []pending
	if disk != nil {
		for _, e := range s.items {
			c := s.codecs[e.key.Kind]
			if c == nil || !e.resident {
				continue
			}
			select {
			case <-e.done:
				todo = append(todo, pending{e, c})
			default: // its own write-through is still running
			}
		}
	}
	s.mu.Unlock()
	for _, p := range todo {
		s.persist(p.e.key, p.e.val, disk, p.codec)
	}
}
