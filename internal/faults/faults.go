// Package faults is a deterministic, site-addressed fault injector for
// resilience testing. Production code calls Fire (or Mangle) at named
// injection sites; with no injector installed these compile down to one
// atomic pointer load returning nil, so the happy path pays nothing. An
// installed Injector decides each firing opportunity by hashing
// (seed, site, opportunity index), so a given seed reproduces the same
// fault schedule for the same sequence of opportunities at a site.
//
// The injector distinguishes transient faults (forgotten by the artifact
// memo and answered 503 by the daemon — see IsTransient) from permanent
// ones, and can also panic, delay, or corrupt a byte buffer in flight,
// which is how trace-record corruption is modeled. The chaos soak in
// internal/core drives the full experiment suite with an injector
// installed at every site class.
package faults

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Site names one injection point. Sites are addressed by string so new
// subsystems can add their own without touching this package.
type Site string

// Injection sites instrumented across the repository.
const (
	// SitePoolTask fires inside core.Pool.Do once a task holds a slot.
	SitePoolTask Site = "pool.task"
	// SiteTraceLoad fires per record during trace deserialization; Corrupt
	// rules at this site mangle the record bytes instead of erroring.
	SiteTraceLoad Site = "trace.load"
	// SiteEmuStep fires per committed instruction in emu.Run.
	SiteEmuStep Site = "emu.step"
	// SiteWorkspaceMemo fires when a workspace memo entry is built (profile
	// builds and machine-run entries alike).
	SiteWorkspaceMemo Site = "workspace.memo"
	// SiteSimulate fires before each pipeline simulation in the workspace.
	SiteSimulate Site = "core.simulate"
	// SiteArtifactDisk fires on the persistent artifact tier's disk paths:
	// once per write attempt (a fault abandons persistence for that
	// artifact — the in-memory result is unaffected), once per rename, and
	// once per readback (a fault degrades the lookup to a rebuild).
	// Corrupt rules at this site mangle the payload bytes in flight, which
	// the store's integrity verification must catch on readback.
	SiteArtifactDisk Site = "artifact.disk"
)

// knownSites is the registry FromSpec validates rule sites against: a
// typo'd site name in $FAULTS would otherwise parse fine and silently
// never fire, which makes a chaos run vacuous without anyone noticing.
// Subsystems outside this package register their sites in an init
// function (see internal/server).
var (
	knownMu    sync.Mutex
	knownSites = map[Site]bool{
		SitePoolTask:      true,
		SiteTraceLoad:     true,
		SiteEmuStep:       true,
		SiteWorkspaceMemo: true,
		SiteSimulate:      true,
		SiteArtifactDisk:  true,
	}
)

// RegisterSite adds injection sites to the known-site registry so FAULTS
// rules naming them pass validation. Registration only affects spec
// parsing: Fire and Mangle work at any site string.
func RegisterSite(sites ...Site) {
	knownMu.Lock()
	defer knownMu.Unlock()
	for _, s := range sites {
		knownSites[s] = true
	}
}

// KnownSites returns every registered site, sorted by name.
func KnownSites() []Site {
	knownMu.Lock()
	defer knownMu.Unlock()
	out := make([]Site, 0, len(knownSites))
	for s := range knownSites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsKnownSite reports whether the site has been registered.
func IsKnownSite(s Site) bool {
	knownMu.Lock()
	defer knownMu.Unlock()
	return knownSites[s]
}

// Kind is the failure mode a rule injects.
type Kind int

const (
	// Transient is a typed error that IsTransient reports true for.
	Transient Kind = iota
	// Permanent is a typed error that IsTransient reports false for.
	Permanent
	// Panic panics with an *Error as the panic value so recovery layers
	// can still attribute the failure to its site.
	Panic
	// Delay sleeps for the rule's Delay and then succeeds.
	Delay
	// Corrupt mangles the caller's buffer (Mangle sites only); at Fire
	// sites it behaves like Permanent.
	Corrupt
)

// String names the kind for error text and counters.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Error is an injected fault. Site and Seq identify exactly which firing
// opportunity produced it, which is what the chaos soak asserts on.
type Error struct {
	Site Site
	Kind Kind
	Seq  uint64 // the site's firing-opportunity index that fired
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s fault at %s (opportunity %d)", e.Kind, e.Site, e.Seq)
}

// Transient reports whether the fault is transient (see IsTransient).
func (e *Error) Transient() bool { return e.Kind == Transient || e.Kind == Delay }

// IsTransient reports whether err is transient: it or any error in its
// chain exposes `Transient() bool` returning true. The artifact store
// forgets a transient failure, so the next request rebuilds instead of
// replaying it, and the daemon answers one with 503. Context
// cancellation and deadline expiry are never transient.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}

// panicError is a recovered panic: the message Recovered formats, and
// the panic value when that was an error.
type panicError struct {
	msg   string
	cause error
}

func (e *panicError) Error() string { return e.msg }
func (e *panicError) Unwrap() error { return e.cause }

// Recovered converts a recovered panic value into an error carrying
// prefix and the panicking goroutine's stack. An error panic value is
// wrapped, not stringified, so errors.Is and errors.As still reach it:
// a Panic-kind fault stays attributable to its site.
func Recovered(prefix string, r any) error {
	cause, _ := r.(error)
	return &panicError{msg: fmt.Sprintf("%s: %v\n%s", prefix, r, debug.Stack()), cause: cause}
}

// IsPanic reports whether err's chain holds a panic that Recovered
// converted. The artifact store forgets such a failure, like a
// transient one: a build that panicked, or that failed because a build
// or pool task it waited on panicked, is rebuilt by the next request.
func IsPanic(err error) bool {
	var p *panicError
	return errors.As(err, &p)
}

// Rule arms one failure mode at a site.
type Rule struct {
	Kind Kind
	// Rate is the per-opportunity injection probability in [0, 1].
	Rate float64
	// Max bounds how many times this rule fires (0 = unlimited).
	Max int
	// Delay is the sleep for Delay-kind rules.
	Delay time.Duration

	fired int
}

// Injector holds a seeded fault schedule. Install it with Set; it is safe
// for concurrent use. The zero Injector injects nothing.
type Injector struct {
	// Metrics, when non-nil, counts injections under
	// metrics.CounterFaultsInjected and a per-site/kind breakdown.
	Metrics *metrics.Collector

	seed uint64

	mu    sync.Mutex
	rules map[Site][]*Rule
	seen  map[Site]uint64 // firing opportunities observed per site
	fired map[Site]uint64 // injections performed per site
}

// NewInjector creates an injector whose decisions derive from seed.
func NewInjector(seed uint64) *Injector {
	return &Injector{
		seed:  seed,
		rules: make(map[Site][]*Rule),
		seen:  make(map[Site]uint64),
		fired: make(map[Site]uint64),
	}
}

// Arm adds a rule at a site and returns the injector for chaining.
func (in *Injector) Arm(site Site, r Rule) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rules == nil {
		in.rules = make(map[Site][]*Rule)
		in.seen = make(map[Site]uint64)
		in.fired = make(map[Site]uint64)
	}
	rc := r
	in.rules[site] = append(in.rules[site], &rc)
	return in
}

// Seen returns how many firing opportunities the site has presented.
func (in *Injector) Seen(site Site) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seen[site]
}

// Fired returns how many faults were injected at the site.
func (in *Injector) Fired(site Site) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[site]
}

// Sites returns the sites with at least one armed rule.
func (in *Injector) Sites() []Site {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Site, 0, len(in.rules))
	for s := range in.rules {
		out = append(out, s)
	}
	return out
}

// decide consumes one firing opportunity and returns the rule to apply,
// if any, plus the opportunity index.
func (in *Injector) decide(site Site) (*Rule, uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rules == nil { // zero Injector: nothing armed, nothing counted
		return nil, 0
	}
	n := in.seen[site]
	in.seen[site] = n + 1
	for i, r := range in.rules[site] {
		if r.Rate <= 0 || (r.Max > 0 && r.fired >= r.Max) {
			continue
		}
		if unitFloat(in.seed, site, n, uint64(i)) >= r.Rate {
			continue
		}
		r.fired++
		in.fired[site]++
		in.Metrics.Add(metrics.CounterFaultsInjected, 1)
		in.Metrics.Add(metrics.CounterFaultsInjected+"."+string(site)+"."+r.Kind.String(), 1)
		return r, n
	}
	return nil, n
}

// Fire consumes one firing opportunity at site and injects per the
// matched rule, if any: it returns the typed error (or panics, or sleeps)
// for a fired rule and nil otherwise.
func (in *Injector) Fire(site Site) error {
	r, seq := in.decide(site)
	if r == nil {
		return nil
	}
	ferr := &Error{Site: site, Kind: r.Kind, Seq: seq}
	switch r.Kind {
	case Panic:
		panic(ferr)
	case Delay:
		time.Sleep(r.Delay)
		return nil
	default:
		return ferr
	}
}

// Mangle consumes one firing opportunity at site; when a Corrupt rule
// fires it flips one deterministic bit of buf and reports true.
func (in *Injector) Mangle(site Site, buf []byte) bool {
	if len(buf) == 0 {
		return false
	}
	in.mu.Lock()
	if in.rules == nil {
		in.mu.Unlock()
		return false
	}
	var hit *Rule
	n := in.seen[site]
	in.seen[site] = n + 1
	for i, r := range in.rules[site] {
		if r.Kind != Corrupt || r.Rate <= 0 || (r.Max > 0 && r.fired >= r.Max) {
			continue
		}
		if unitFloat(in.seed, site, n, uint64(i)) < r.Rate {
			r.fired++
			in.fired[site]++
			hit = r
			break
		}
	}
	in.mu.Unlock()
	if hit == nil {
		return false
	}
	in.Metrics.Add(metrics.CounterFaultsInjected, 1)
	in.Metrics.Add(metrics.CounterFaultsInjected+"."+string(site)+"."+Corrupt.String(), 1)
	h := mix(in.seed ^ siteHash(site) ^ (n * 0x9e3779b97f4a7c15))
	buf[h%uint64(len(buf))] ^= 1 << ((h >> 32) % 8)
	return true
}

// active is the installed injector; nil means injection is disabled and
// every hook is a single atomic load.
var active atomic.Pointer[Injector]

// Set installs in as the process-wide injector (nil disarms). Install
// before starting the work under test: sites sample the injector at
// well-defined points, and swapping it mid-run makes the schedule
// dependent on goroutine interleaving.
func Set(in *Injector) { active.Store(in) }

// Active returns the installed injector, or nil.
func Active() *Injector { return active.Load() }

// Enabled reports whether an injector is installed.
func Enabled() bool { return active.Load() != nil }

// Fire consumes one firing opportunity at site on the installed injector.
// It returns nil (fast) when injection is disabled.
func Fire(site Site) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.Fire(site)
}

// Mangle gives the installed injector a chance to corrupt buf in place,
// reporting whether it did. It is a no-op when injection is disabled.
func Mangle(site Site, buf []byte) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	return in.Mangle(site, buf)
}

// siteHash is FNV-1a over the site name.
func siteHash(site Site) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 finalizer: a cheap, well-distributed hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps (seed, site, opportunity, rule) to a uniform [0, 1).
func unitFloat(seed uint64, site Site, n, rule uint64) float64 {
	h := mix(seed ^ siteHash(site) ^ mix(n) ^ (rule << 56))
	return float64(h>>11) / float64(1<<53)
}
