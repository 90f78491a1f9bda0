package dip

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func mustNew(t testing.TB, cfg Config) *Table {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDefaultConfigValidAndSmall(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if kb := cfg.StateKB(); kb >= 5 {
		t.Errorf("default config is %.2f KB, want < 5 KB", kb)
	}
	if !cfg.UseCFI() {
		t.Error("default config should use CFI")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{LogSets: -1, Ways: 1, TagBits: 4, SigSlots: 1, CounterBits: 2, Threshold: 1},
		{LogSets: 4, Ways: 0, TagBits: 4, SigSlots: 1, CounterBits: 2, Threshold: 1},
		{LogSets: 4, Ways: 1, TagBits: 0, SigSlots: 1, CounterBits: 2, Threshold: 1},
		{LogSets: 4, Ways: 1, TagBits: 4, PathLen: 17, SigSlots: 1, CounterBits: 2, Threshold: 1},
		{LogSets: 4, Ways: 1, TagBits: 4, SigSlots: 0, CounterBits: 2, Threshold: 1},
		{LogSets: 4, Ways: 1, TagBits: 4, SigSlots: 1, CounterBits: 0, Threshold: 1},
		{LogSets: 4, Ways: 1, TagBits: 4, SigSlots: 1, CounterBits: 2, Threshold: 4},
		{LogSets: 4, Ways: 1, TagBits: 4, SigSlots: 1, CounterBits: 2, Threshold: 0},
		// Oversized geometry: 2^40 entries, and a StateBits past int range.
		{LogSets: 20, Ways: 1 << 20, TagBits: 8, PathLen: 2, SigSlots: 4, CounterBits: 2, Threshold: 2},
		{LogSets: 4, Ways: 1 << 40, TagBits: 8, PathLen: 2, SigSlots: 4, CounterBits: 2, Threshold: 2},
		{LogSets: 4, Ways: 65, TagBits: 8, PathLen: 2, SigSlots: 4, CounterBits: 2, Threshold: 2},
		{LogSets: 4, Ways: 4, TagBits: 8, PathLen: 2, SigSlots: 65, CounterBits: 2, Threshold: 2},
		{LogSets: 4, Ways: 4, TagBits: 8, PathLen: 2, SigSlots: 1 << 40, CounterBits: 2, Threshold: 2},
		// 2^15 sets × 64 ways is one doubling past the entry cap.
		{LogSets: 15, Ways: 64, TagBits: 8, PathLen: 2, SigSlots: 4, CounterBits: 2, Threshold: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	edge := Config{LogSets: 14, Ways: 64, TagBits: 8, PathLen: 2, SigSlots: 64, CounterBits: 2, Threshold: 2}
	if err := edge.Validate(); err != nil {
		t.Errorf("largest allowed geometry rejected: %v", err)
	}
}

func TestStateBitsFormula(t *testing.T) {
	cfg := Config{LogSets: 3, Ways: 2, TagBits: 8, PathLen: 8,
		SigSlots: 2, CounterBits: 2, Threshold: 2}
	// Per slot: 1+8+2 = 11. Per entry: 1+8+1(lru)+2*11 = 32. 16 entries.
	if got := cfg.StateBits(); got != 16*32 {
		t.Errorf("StateBits = %d, want 512", got)
	}
}

func TestCounterVariantName(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PathLen = 0
	if cfg.UseCFI() {
		t.Error("PathLen 0 should disable CFI")
	}
	if !strings.Contains(cfg.Name(), "counter") {
		t.Errorf("name %q should say counter", cfg.Name())
	}
}

func TestLearnsDeadPC(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	const pc, sig = 100, 0b1010
	if p.Predict(pc, sig) {
		t.Fatal("cold predictor predicted dead")
	}
	p.Update(pc, sig, true)
	if p.Predict(pc, sig) {
		t.Fatal("one observation reached threshold 2")
	}
	p.Update(pc, sig, true)
	if !p.Predict(pc, sig) {
		t.Fatal("two dead observations should predict dead")
	}
}

func TestPathSignatureSeparatesInstances(t *testing.T) {
	// Same PC: dead on path A, live on path B. CFI keeps them apart.
	p := mustNew(t, DefaultConfig())
	const pc = 7
	const deadPath, livePath = 0b0001, 0b0000
	for i := 0; i < 4; i++ {
		p.Update(pc, deadPath, true)
		p.Update(pc, livePath, false)
	}
	if !p.Predict(pc, deadPath) {
		t.Error("dead path not predicted dead")
	}
	if p.Predict(pc, livePath) {
		t.Error("live path predicted dead")
	}
}

func TestNoCFICannotSeparatePaths(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PathLen = 0
	p := mustNew(t, cfg)
	const pc = 7
	// Alternating outcomes keep the single counter oscillating below a
	// confident dead prediction on at least one phase; crucially the two
	// "paths" are indistinguishable (signature masked to 0).
	for i := 0; i < 4; i++ {
		p.Update(pc, 0b0001, true)
		p.Update(pc, 0b0000, false)
	}
	a := p.Predict(pc, 0b0001)
	b := p.Predict(pc, 0b0000)
	if a != b {
		t.Error("no-CFI predictor distinguished paths it cannot see")
	}
}

func TestLiveOutcomeDecaysConfidence(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	const pc, sig = 3, 0b11
	for i := 0; i < 4; i++ {
		p.Update(pc, sig, true)
	}
	if !p.Predict(pc, sig) {
		t.Fatal("not learned")
	}
	for i := 0; i < 3; i++ {
		p.Update(pc, sig, false)
	}
	if p.Predict(pc, sig) {
		t.Error("confidence did not decay after live outcomes")
	}
}

func TestLiveOnlyPCAllocatesNothing(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	for pc := 0; pc < 100; pc++ {
		p.Update(pc, 0, false)
	}
	if p.Allocations != 0 {
		t.Errorf("allocations = %d, want 0 for live-only updates", p.Allocations)
	}
}

func TestSlotReplacement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SigSlots = 2
	p := mustNew(t, cfg)
	const pc = 11
	// Fill both slots with strong signatures.
	for i := 0; i < 3; i++ {
		p.Update(pc, 1, true)
		p.Update(pc, 2, true)
	}
	// Weaken signature 2, then introduce signature 3: slot 2 is stolen.
	p.Update(pc, 2, false)
	p.Update(pc, 2, false)
	p.Update(pc, 2, false)
	p.Update(pc, 3, true)
	p.Update(pc, 3, true)
	if !p.Predict(pc, 1) {
		t.Error("strong signature 1 lost")
	}
	if !p.Predict(pc, 3) {
		t.Error("new signature 3 not learned")
	}
	if p.Predict(pc, 2) {
		t.Error("evicted signature 2 still predicted dead")
	}
}

func TestEntryEvictionLRU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LogSets = 0 // single set
	cfg.Ways = 2
	p := mustNew(t, cfg)
	train := func(pc int) {
		p.Update(pc, 0, true)
		p.Update(pc, 0, true)
	}
	train(1)
	train(2)
	_ = p.Predict(1, 0) // touch 1, making 2 the LRU victim
	train(3)            // evicts 2
	if !p.Predict(1, 0) {
		t.Error("recently used entry evicted")
	}
	if p.Predict(2, 0) {
		t.Error("LRU entry survived eviction")
	}
	if !p.Predict(3, 0) {
		t.Error("new entry not present")
	}
	if p.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", p.Evictions)
	}
}

func TestReset(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	p.Update(5, 0, true)
	p.Update(5, 0, true)
	if !p.Predict(5, 0) {
		t.Fatal("not learned")
	}
	p.Reset()
	if p.Predict(5, 0) {
		t.Error("state survived Reset")
	}
	if p.Allocations != 0 || p.Evictions != 0 {
		t.Error("counters survived Reset")
	}
}

func TestSignatureMasking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PathLen = 4
	p := mustNew(t, cfg)
	// Bits above PathLen must be ignored.
	p.Update(9, 0xfff3, true)
	p.Update(9, 0x0003, true)
	if !p.Predict(9, 0xa3) {
		t.Error("signature masking broken: high bits should be ignored")
	}
}

func TestPredictIsSideEffectFreeOnMisses(t *testing.T) {
	f := func(pc uint16, sig uint16) bool {
		p := mustNew(t, DefaultConfig())
		before := p.Allocations
		_ = p.Predict(int(pc), sig)
		_ = p.Predict(int(pc), sig)
		return p.Allocations == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	p, err := New(Config{})
	if p != nil || err == nil {
		t.Fatalf("New(Config{}) = %v, %v; want nil, error", p, err)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Errorf("error %v is not a *ConfigError", err)
	}
}
