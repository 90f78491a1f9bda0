package compiler

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/emu"
)

// fuzzOptionSets are the compiler configurations differential-tested
// against the IR interpreter.
var fuzzOptionSets = []Options{
	{},
	{MaxHoist: 2},
	{MaxLICM: 4},
	{MaxHoist: 3, MaxLICM: 8},
	{MaxHoist: 3, MaxLICM: 8, NumRegs: 4},
	{MaxHoist: 1, NumRegs: 2},
	{MaxHoist: 3, MaxLICM: 8, Fold: true, DCE: true},
	{Fold: true, DCE: true, NumRegs: 3},
}

// TestFuzzCompilerEquivalence generates random IR functions and checks
// that compiled execution matches direct interpretation under every
// optimization configuration — the compiler's end-to-end correctness
// property.
func TestFuzzCompilerEquivalence(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		f := RandomFunc(rng, 2+rng.Intn(10))
		if err := f.Validate(); err != nil {
			t.Fatalf("seed %d: invalid IR: %v", seed, err)
		}
		want, err := Interpret(f, 1_000_000)
		if err != nil {
			t.Fatalf("seed %d: interpret: %v", seed, err)
		}
		for _, opts := range fuzzOptionSets {
			p, _, err := Compile(f, opts)
			if err != nil {
				t.Fatalf("seed %d opts %+v: compile: %v", seed, opts, err)
			}
			m := emu.New(p)
			if err := m.Run(2_000_000, nil); err != nil {
				t.Fatalf("seed %d opts %+v: run: %v", seed, opts, err)
			}
			if !reflect.DeepEqual(m.Outputs, want) {
				t.Fatalf("seed %d opts %+v: outputs differ\n got %v\nwant %v",
					seed, opts, m.Outputs, want)
			}
		}
	}
}

// TestFuzzPassesPreserveSemantics applies each pass in isolation to random
// functions and re-interprets, pinning miscompiles to a single pass.
func TestFuzzPassesPreserveSemantics(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		f := RandomFunc(rng, 2+rng.Intn(10))
		want, err := Interpret(f, 1_000_000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		passes := []struct {
			name string
			run  func(*Func)
		}{
			{"hoist", func(g *Func) { Hoist(g, 3) }},
			{"licm", func(g *Func) { LICM(g, 8) }},
			{"hoist+licm", func(g *Func) { LICM(g, 8); Hoist(g, 3) }},
		}
		for _, pass := range passes {
			g := f.Clone()
			pass.run(g)
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d pass %s: broke validity: %v", seed, pass.name, err)
			}
			got, err := Interpret(g, 1_000_000)
			if err != nil {
				t.Fatalf("seed %d pass %s: %v", seed, pass.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d pass %s: outputs differ\n got %v\nwant %v",
					seed, pass.name, got, want)
			}
		}
	}
}

func TestRandomFuncAlwaysTerminates(t *testing.T) {
	for seed := 0; seed < 50; seed++ {
		rng := rand.New(rand.NewSource(int64(7000 + seed)))
		f := RandomFunc(rng, 12)
		if _, err := Interpret(f, 5_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRandomFuncDeterministic(t *testing.T) {
	a := RandomFunc(rand.New(rand.NewSource(42)), 8)
	b := RandomFunc(rand.New(rand.NewSource(42)), 8)
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatal("block counts differ")
	}
	for i := range a.Blocks {
		if !reflect.DeepEqual(a.Blocks[i].Instrs, b.Blocks[i].Instrs) {
			t.Fatalf("block %d differs", i)
		}
	}
}
