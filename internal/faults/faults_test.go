package faults

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// schedule records which of the first n opportunities at a site fire.
func schedule(in *Injector, site Site, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = in.Fire(site) != nil
	}
	return out
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	arm := func(seed uint64) *Injector {
		return NewInjector(seed).Arm(SitePoolTask, Rule{Kind: Transient, Rate: 0.3})
	}
	a := schedule(arm(42), SitePoolTask, 500)
	b := schedule(arm(42), SitePoolTask, 500)
	if !equalBools(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := schedule(arm(43), SitePoolTask, 500)
	if equalBools(a, c) {
		t.Error("different seeds produced identical schedules (astronomically unlikely)")
	}
}

func TestSitesAreIndependent(t *testing.T) {
	in := NewInjector(7).
		Arm(SitePoolTask, Rule{Kind: Transient, Rate: 0.3}).
		Arm(SiteEmuStep, Rule{Kind: Transient, Rate: 0.3})
	a := schedule(in, SitePoolTask, 300)
	b := schedule(in, SiteEmuStep, 300)
	if equalBools(a, b) {
		t.Error("two sites share a schedule; site must perturb the hash")
	}
}

func TestRateBounds(t *testing.T) {
	in := NewInjector(1).Arm(SitePoolTask, Rule{Kind: Transient, Rate: 0})
	for i := 0; i < 100; i++ {
		if in.Fire(SitePoolTask) != nil {
			t.Fatal("rate 0 fired")
		}
	}
	in = NewInjector(1).Arm(SitePoolTask, Rule{Kind: Transient, Rate: 1})
	for i := 0; i < 100; i++ {
		if in.Fire(SitePoolTask) == nil {
			t.Fatal("rate 1 did not fire")
		}
	}
	if in.Seen(SitePoolTask) != 100 || in.Fired(SitePoolTask) != 100 {
		t.Errorf("seen=%d fired=%d, want 100/100", in.Seen(SitePoolTask), in.Fired(SitePoolTask))
	}
}

func TestMaxCapsFirings(t *testing.T) {
	in := NewInjector(1).Arm(SitePoolTask, Rule{Kind: Permanent, Rate: 1, Max: 3})
	fired := 0
	for i := 0; i < 50; i++ {
		if in.Fire(SitePoolTask) != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Errorf("fired %d times, want Max=3", fired)
	}
}

func TestErrorAttributionAndTransience(t *testing.T) {
	in := NewInjector(1).Arm(SiteArtifactDisk, Rule{Kind: Transient, Rate: 1})
	err := in.Fire(SiteArtifactDisk)
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != SiteArtifactDisk || fe.Seq != 0 {
		t.Fatalf("bad attribution: %v", err)
	}
	if !IsTransient(err) {
		t.Error("transient fault not recognized by IsTransient")
	}
	if !IsTransient(fmt.Errorf("wrapped twice: %w", fmt.Errorf("once: %w", err))) {
		t.Error("IsTransient must see through wrapping")
	}

	perm := (&Injector{}).Fire(SitePoolTask) // zero injector: no rules
	if perm != nil {
		t.Fatal("zero injector fired")
	}
	in = NewInjector(1).Arm(SitePoolTask, Rule{Kind: Permanent, Rate: 1})
	if IsTransient(in.Fire(SitePoolTask)) {
		t.Error("permanent fault reported transient")
	}
}

func TestIsTransientExcludesContextErrors(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil is not transient")
	}
	if IsTransient(context.Canceled) || IsTransient(context.DeadlineExceeded) {
		t.Error("context errors must never be transient")
	}
	// Even a transient fault wrapped together with cancellation is not
	// transient: the caller's deadline wins.
	both := fmt.Errorf("%w: %w", context.Canceled, &Error{Site: SitePoolTask, Kind: Transient})
	if IsTransient(both) {
		t.Error("cancellation in the chain must veto transience")
	}
}

func TestPanicKindCarriesTypedValue(t *testing.T) {
	in := NewInjector(1).Arm(SiteEmuStep, Rule{Kind: Panic, Rate: 1})
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok || fe.Site != SiteEmuStep || fe.Kind != Panic {
			t.Errorf("panic value = %v, want *Error at emu.step", r)
		}
	}()
	in.Fire(SiteEmuStep)
	t.Fatal("panic rule did not panic")
}

func TestRecoveredIsPanic(t *testing.T) {
	fe := &Error{Site: SiteSimulate, Kind: Panic}
	err := fmt.Errorf("experiment e9: %w", Recovered("core: task panic", fe))
	if !IsPanic(err) {
		t.Errorf("IsPanic(%v) = false through a wrapped recovered panic", err)
	}
	if !errors.Is(err, fe) || !strings.HasPrefix(err.Error(), "experiment e9: core: task panic: faults: injected panic") {
		t.Errorf("recovered error %q lost its panic value", err)
	}
	if !IsPanic(Recovered("core: task panic", "boom")) {
		t.Error("a non-error panic value is not reported as a panic")
	}
	if IsPanic(nil) || IsPanic(fe) {
		t.Error("IsPanic reports a panic that was never recovered")
	}
}

func TestDelayKindSleepsAndSucceeds(t *testing.T) {
	in := NewInjector(1).Arm(SitePoolTask, Rule{Kind: Delay, Rate: 1, Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := in.Fire(SitePoolTask); err != nil {
		t.Fatalf("delay returned error %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("slept %v, want >= 20ms", d)
	}
}

func TestMangleFlipsExactlyOneBit(t *testing.T) {
	in := NewInjector(9).Arm(SiteArtifactDisk, Rule{Kind: Corrupt, Rate: 1})
	buf := make([]byte, 24)
	orig := bytes.Clone(buf)
	if !in.Mangle(SiteArtifactDisk, buf) {
		t.Fatal("rate-1 corrupt rule did not mangle")
	}
	diff := 0
	for i := range buf {
		for b := 0; b < 8; b++ {
			if (buf[i]^orig[i])>>b&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Errorf("%d bits flipped, want exactly 1", diff)
	}
	if in.Mangle(SiteArtifactDisk, nil) {
		t.Error("empty buffer cannot be mangled")
	}
	// Fire-only rules must not mangle, and vice versa.
	in = NewInjector(9).Arm(SiteArtifactDisk, Rule{Kind: Transient, Rate: 1})
	if in.Mangle(SiteArtifactDisk, buf) {
		t.Error("transient rule mangled a buffer")
	}
}

func TestMetricsCounters(t *testing.T) {
	mc := metrics.New()
	in := NewInjector(1).Arm(SitePoolTask, Rule{Kind: Transient, Rate: 1, Max: 4})
	in.Metrics = mc
	for i := 0; i < 10; i++ {
		in.Fire(SitePoolTask)
	}
	if n := mc.Counter(metrics.CounterFaultsInjected); n != 4 {
		t.Errorf("faults_injected = %d, want 4", n)
	}
	breakdown := metrics.CounterFaultsInjected + ".pool.task.transient"
	if n := mc.Counter(breakdown); n != 4 {
		t.Errorf("%s = %d, want 4", breakdown, n)
	}
}

func TestGlobalInstall(t *testing.T) {
	if Enabled() {
		t.Fatal("injector already installed at test start")
	}
	if err := Fire(SitePoolTask); err != nil {
		t.Fatal("disabled Fire must return nil")
	}
	if Mangle(SiteArtifactDisk, []byte{0}) {
		t.Fatal("disabled Mangle must report false")
	}
	in := NewInjector(1).Arm(SitePoolTask, Rule{Kind: Permanent, Rate: 1})
	Set(in)
	defer Set(nil)
	if Active() != in {
		t.Fatal("Active did not return the installed injector")
	}
	if err := Fire(SitePoolTask); err == nil {
		t.Fatal("installed injector did not fire")
	}
}

func TestFromSpec(t *testing.T) {
	in, err := FromSpec("pool.task:transient:0.5:2, emu.step:delay:1:0:5ms ,artifact.disk:corrupt:0.25", 3)
	if err != nil {
		t.Fatal(err)
	}
	sites := in.Sites()
	if len(sites) != 3 {
		t.Fatalf("parsed %d sites, want 3: %v", len(sites), sites)
	}
	for _, bad := range []string{
		"pool.task",                  // too few fields
		"pool.task:meteor:0.5",       // unknown kind
		"pool.task:transient:1.5",    // rate out of range
		"pool.task:transient:x",      // non-numeric rate
		"pool.task:transient:0.5:-1", // negative max
		"pool.task:delay:1:0:zzz",    // bad duration
		"pool.tsk:transient:0.5",     // typo'd site name
	} {
		_, err := FromSpec(bad, 1)
		if err == nil {
			t.Errorf("FromSpec(%q) accepted invalid rule", bad)
			continue
		}
		// Every parse error must quote the offending rule so a typo in a
		// multi-rule $FAULTS is attributable at a glance.
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("FromSpec(%q) error does not quote the rule: %v", bad, err)
		}
	}
	if in, err := FromSpec("  ", 1); err != nil || len(in.Sites()) != 0 {
		t.Errorf("blank spec: in=%v err=%v, want empty injector", in, err)
	}
	// A bad rule mid-spec must name that rule, not a neighbor.
	_, err = FromSpec("pool.task:transient:0.5,emu.stepp:transient:0.5", 1)
	if err == nil || !strings.Contains(err.Error(), `"emu.stepp:transient:0.5"`) {
		t.Errorf("mid-spec typo not attributed to its rule: %v", err)
	}
}

func TestSiteRegistry(t *testing.T) {
	for _, s := range []Site{SitePoolTask, SiteEmuStep,
		SiteWorkspaceMemo, SiteSimulate, SiteArtifactDisk} {
		if !IsKnownSite(s) {
			t.Errorf("builtin site %q not registered", s)
		}
	}
	// Unknown sites are rejected with the known-site list in the message...
	_, err := FromSpec("custom.site:transient:0.5", 1)
	if err == nil {
		t.Fatal("unregistered site accepted")
	}
	if !strings.Contains(err.Error(), string(SitePoolTask)) {
		t.Errorf("unknown-site error does not list known sites: %v", err)
	}
	// ...until a subsystem registers them.
	RegisterSite("custom.site")
	in, err := FromSpec("custom.site:transient:1:1", 1)
	if err != nil {
		t.Fatalf("registered site rejected: %v", err)
	}
	if err := in.Fire("custom.site"); err == nil {
		t.Error("rate-1 rule at registered site did not fire")
	}
	sites := KnownSites()
	if !sort.SliceIsSorted(sites, func(i, j int) bool { return sites[i] < sites[j] }) {
		t.Errorf("KnownSites not sorted: %v", sites)
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(EnvSpec, "")
	if in, err := FromEnv(); in != nil || err != nil {
		t.Fatalf("unset FAULTS: got %v, %v; want nil, nil", in, err)
	}
	t.Setenv(EnvSpec, "pool.task:transient:0.5")
	t.Setenv(EnvSeed, "99")
	in, err := FromEnv()
	if err != nil || in == nil {
		t.Fatalf("FromEnv: %v, %v", in, err)
	}
	if in.seed != 99 {
		t.Errorf("seed = %d, want 99", in.seed)
	}
	t.Setenv(EnvSeed, "not-a-number")
	if _, err := FromEnv(); err == nil {
		t.Error("bad FAULTS_SEED accepted")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Transient: "transient", Permanent: "permanent",
		Panic: "panic", Delay: "delay", Corrupt: "corrupt",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must still stringify")
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
