package workload

import (
	"testing"

	"repro/internal/deadness"
	"repro/internal/emu"
	"repro/internal/program"
)

// analyzeProfile builds, compiles, runs, and analyzes a one-off profile.
func analyzeProfile(t *testing.T, p Profile) (*deadness.Summary, *program.Program) {
	t.Helper()
	prog, _, err := p.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, a, _, err := emu.CollectAnalyzed(prog, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	s := a.Summarize(tr, prog)
	return &s, prog
}

// base returns a minimal, deterministic profile to vary per test.
func base() Profile {
	return Profile{
		Name: "t", Seed: 42,
		LoopNests: 2, OuterIters: 400, Patterns: 6,
		SinkProb: 1.0,
		Opts:     opts(2, 20),
	}
}

func TestPatternStoreDiamondCreatesPartiallyDeadStores(t *testing.T) {
	p := base()
	p.MemProb = 0.9
	p.DeadStoreProb = 1.0 // every array step guards its store
	s, _ := analyzeProfile(t, p)
	if s.DeadStores == 0 {
		t.Fatal("no dead stores from the overwriting diamond")
	}
	// The guarded store is dead only when the branch overwrites: there
	// must also be live stores (partial deadness).
	if s.DeadStores >= s.ByProv[program.ProvNormal].Dyn {
		t.Error("implausible store deadness")
	}
}

func TestPatternCallRegionsProduceConventionDeadness(t *testing.T) {
	p := base()
	p.CallProb = 1.0
	s, _ := analyzeProfile(t, p)
	saves := s.ByProv[program.ProvCallSave]
	restores := s.ByProv[program.ProvCallRestore]
	if saves.Dyn == 0 || restores.Dyn == 0 {
		t.Fatal("no calling-convention code emitted")
	}
	if restores.Dead == 0 {
		t.Error("no dead restores despite post-call overwrites")
	}
	if restores.Dead == restores.Dyn {
		t.Error("every restore dead: should be partially dead")
	}
	// A dead restore implies its save is (at most) transitively dead;
	// dead saves should not exceed dead restores by much.
	if saves.Dead > restores.Dead {
		t.Errorf("dead saves (%d) exceed dead restores (%d)", saves.Dead, restores.Dead)
	}
}

func TestPatternDiamondHoistDeadness(t *testing.T) {
	p := base()
	p.DiamondProb = 0.9
	p.ThenBias = 0.2 // then-path rare: hoisted code mostly dead
	s, _ := analyzeProfile(t, p)
	hoisted := s.ByProv[program.ProvHoisted]
	if hoisted.Dyn == 0 {
		t.Fatal("nothing hoisted")
	}
	ratio := float64(hoisted.Dead) / float64(hoisted.Dyn)
	if ratio < 0.4 {
		t.Errorf("hoisted deadness ratio = %.2f, want mostly dead with rare then-path", ratio)
	}

	// Flip the bias: hoisted code should become mostly live.
	p2 := base()
	p2.DiamondProb = 0.9
	p2.ThenBias = 0.8
	s2, _ := analyzeProfile(t, p2)
	h2 := s2.ByProv[program.ProvHoisted]
	if h2.Dyn == 0 {
		t.Fatal("nothing hoisted in biased variant")
	}
	r2 := float64(h2.Dead) / float64(h2.Dyn)
	if r2 >= ratio {
		t.Errorf("then-biased hoisted deadness %.2f not below rare-then %.2f", r2, ratio)
	}
}

func TestPatternChaseIsLive(t *testing.T) {
	p := base()
	p.ChaseProb = 1.0
	p.MemProb = 1.0
	s, _ := analyzeProfile(t, p)
	// The pointer chase feeds the sink; deadness should be minimal.
	if f := s.DeadFraction(); f > 0.05 {
		t.Errorf("chase-only profile dead fraction = %.2f%%", 100*f)
	}
}

func TestArrayWordsValidation(t *testing.T) {
	p := base()
	p.ArrayWords = 1000 // not a power of two
	if _, err := p.Build(); err == nil {
		t.Error("non-power-of-two ArrayWords accepted")
	}
}
