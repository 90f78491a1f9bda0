package workload

import (
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/emu"
)

func TestSuiteBuildsAndValidates(t *testing.T) {
	benches, err := BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 11 {
		t.Fatalf("suite size = %d, want 11", len(benches))
	}
	for _, b := range benches {
		if err := b.Prog.Validate(); err != nil {
			t.Errorf("%s: %v", b.Profile.Name, err)
		}
		if len(b.Prog.Insts) < 50 {
			t.Errorf("%s: suspiciously small (%d instructions)",
				b.Profile.Name, len(b.Prog.Insts))
		}
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	p, err := ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := p.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := p.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Insts, b.Insts) {
		t.Error("two builds of the same profile differ")
	}
	if !reflect.DeepEqual(a.Data, b.Data) {
		t.Error("data segments differ")
	}
}

func TestBenchmarksTerminateAndProduceOutput(t *testing.T) {
	for _, p := range Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			prog, _, err := p.Compile(nil)
			if err != nil {
				t.Fatal(err)
			}
			m := emu.New(prog)
			if err := m.Run(5_000_000, nil); err != nil {
				t.Fatalf("did not halt within 5M instructions: %v", err)
			}
			if len(m.Outputs) == 0 {
				t.Error("no outputs")
			}
		})
	}
}

func TestOptimizationPreservesSemantics(t *testing.T) {
	// The compiled program at every optimization level must produce the
	// IR interpreter's outputs.
	for _, name := range []string{"gzip", "mcf", "crafty"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := compiler.Interpret(f, 20_000_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []compiler.Options{
			{},
			{MaxHoist: 3},
			{MaxLICM: 8},
			p.Opts,
			{MaxHoist: 3, MaxLICM: 8, NumRegs: 8},
		} {
			prog, _, err := p.Compile(&opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			m := emu.New(prog)
			if err := m.Run(20_000_000, nil); err != nil {
				t.Fatalf("%s %+v: %v", name, opts, err)
			}
			if !reflect.DeepEqual(m.Outputs, want) {
				t.Errorf("%s: outputs differ under %+v", name, opts)
			}
		}
	}
}

func TestHoistingHappensInSuite(t *testing.T) {
	benches, err := BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	hoisted := 0
	for _, b := range benches {
		if b.Stats.Hoisted > 0 {
			hoisted++
		}
	}
	// mcf is memory-bound with almost no diamonds; everything else should
	// give the scheduler something to move.
	if hoisted < len(benches)-1 {
		t.Errorf("scheduler hoisted in only %d of %d benchmarks", hoisted, len(benches))
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("gzip"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestDegenerateProfileRejected(t *testing.T) {
	if _, err := (Profile{Name: "x"}).Build(); err == nil {
		t.Error("degenerate profile accepted")
	}
}

// TestSuiteDeadFractions is the tuning guard for experiment E1: the suite
// must span the paper's 3-16% dynamic dead-instruction range.
func TestSuiteDeadFractions(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var minF, maxF float64 = 1, 0
	for _, p := range Suite() {
		p := p
		prog, _, err := p.Compile(nil)
		if err != nil {
			t.Fatal(err)
		}
		tr, a, _, err := emu.CollectAnalyzed(prog, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		s := a.Summarize(tr, prog)
		f := s.DeadFraction()
		t.Logf("%-8s dead %.2f%% (n=%d, first=%d trans=%d loads=%d stores=%d)",
			p.Name, 100*f, tr.Len(), s.FirstLevel, s.Transitive, s.DeadLoads, s.DeadStores)
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
		if f < 0.02 || f > 0.20 {
			t.Errorf("%s: dead fraction %.2f%% outside the plausible band [2%%, 20%%]",
				p.Name, 100*f)
		}
	}
	if minF > 0.06 {
		t.Errorf("suite minimum dead fraction %.2f%% too high — paper reports ~3%%", 100*minF)
	}
	if maxF < 0.10 {
		t.Errorf("suite maximum dead fraction %.2f%% too low — paper reports up to 16%%", 100*maxF)
	}
}
