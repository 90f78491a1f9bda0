// System-level property tests: random IR programs are pushed through the
// whole stack (compile → emulate → link → oracle → pipeline) and checked
// against invariants that must hold for any program.
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/compiler"
	"repro/internal/deadness"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// buildRandom compiles a random function and produces its analyzed trace.
func buildRandom(t *testing.T, seed int64) (*trace.Trace, *deadness.Analysis) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := compiler.RandomFunc(rng, 3+rng.Intn(8))
	p, _, err := compiler.Compile(f, compiler.Options{MaxHoist: 2, MaxLICM: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr, a, _, err := emu.CollectAnalyzed(p, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	return tr, a
}

func TestOracleInvariantsOnRandomPrograms(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		tr, a := buildRandom(t, int64(seed))
		recs := tr.Records()
		for seq := range recs {
			r := &recs[seq]
			kind := a.Facts[seq].Kind()

			// Only candidates may be dead.
			if !a.Facts[seq].Candidate() && kind.Dead() {
				t.Fatalf("seed %d seq %d: non-candidate %v classified %v",
					seed, seq, r.Op, kind)
			}
			// Control flow and outputs are never candidates.
			if (r.Op.IsControl() || r.Op == isa.OUT || r.Op == isa.HALT) && a.Facts[seq].Candidate() {
				t.Fatalf("seed %d seq %d: %v is a candidate", seed, seq, r.Op)
			}
			// First-level dead values were never read; transitive ones were.
			if kind == deadness.FirstLevel && a.Facts[seq].EverRead() {
				t.Fatalf("seed %d seq %d: first-level dead but read", seed, seq)
			}
			if kind == deadness.Transitive && !a.Facts[seq].EverRead() {
				t.Fatalf("seed %d seq %d: transitive dead but never read", seed, seq)
			}
			// Resolve points are causal.
			if res := a.Resolve[seq]; int(res) <= seq {
				t.Fatalf("seed %d seq %d: resolve %d not after the instruction", seed, seq, res)
			}

			// A producer read by a live instruction must be live
			// (usefulness is transitively closed).
			if kind.Dead() {
				continue
			}
			check := func(p int32) {
				if p == trace.NoProducer {
					return
				}
				if a.Facts[p].Candidate() && a.Facts[p].Kind().Dead() {
					t.Fatalf("seed %d: live seq %d reads dead producer %d", seed, seq, p)
				}
			}
			if !a.Facts[seq].Candidate() || !a.Facts[seq].Kind().Dead() {
				// seq is live (or not a candidate): its producers feed a
				// useful root eventually only if seq itself is useful.
				// Direct check: live instructions never read dead values.
				check(r.Src1)
				check(r.Src2)
				for _, p := range r.MemProducers() {
					check(p)
				}
			}
		}
	}
}

func TestPipelineInvariantsOnRandomPrograms(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	configs := []func() pipeline.Config{
		pipeline.BaselineConfig,
		pipeline.ContendedConfig,
		func() pipeline.Config {
			c := pipeline.ContendedConfig()
			c.Elim = true
			return c
		},
		func() pipeline.Config {
			c := pipeline.BaselineConfig()
			c.Elim = true
			c.OracleElim = true
			return c
		},
		func() pipeline.Config {
			c := pipeline.BaselineConfig()
			c.PhysRegs = 36
			c.IQSize = 4
			c.LSQSize = 4
			c.ROBSize = 16
			return c
		},
	}
	for seed := 0; seed < seeds; seed++ {
		tr, a := buildRandom(t, int64(100+seed))
		for ci, mk := range configs {
			cfg := mk()
			st, err := pipeline.Run(tr, a, cfg)
			if err != nil {
				t.Fatalf("seed %d config %d: %v", seed, ci, err)
			}
			if st.Committed != int64(tr.Len()) {
				t.Fatalf("seed %d config %d: committed %d of %d",
					seed, ci, st.Committed, tr.Len())
			}
			if st.IPC() <= 0 || st.IPC() > float64(cfg.CommitWidth) {
				t.Fatalf("seed %d config %d: IPC %v out of range", seed, ci, st.IPC())
			}
			if st.PhysFrees != st.PhysAllocs {
				t.Fatalf("seed %d config %d: allocs %d != frees %d",
					seed, ci, st.PhysAllocs, st.PhysFrees)
			}
			if !cfg.Elim && (st.Eliminated != 0 || st.DeadPredictions != 0) {
				t.Fatalf("seed %d config %d: elimination without Elim", seed, ci)
			}
			if cfg.OracleElim && st.DeadMispredicts != 0 {
				t.Fatalf("seed %d config %d: oracle mispredicted", seed, ci)
			}
			if st.Eliminated > st.DeadPredictions {
				t.Fatalf("seed %d config %d: eliminated %d > predictions %d",
					seed, ci, st.Eliminated, st.DeadPredictions)
			}
		}
	}
}

func TestEncodingRoundTripsCompiledPrograms(t *testing.T) {
	for seed := 0; seed < 30; seed++ {
		rng := rand.New(rand.NewSource(int64(500 + seed)))
		f := compiler.RandomFunc(rng, 2+rng.Intn(6))
		p, _, err := compiler.Compile(f, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		words, err := isa.EncodeProgram(p.Insts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		back, err := isa.DecodeProgram(words)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range back {
			if back[i] != p.Insts[i] {
				t.Fatalf("seed %d: instruction %d mismatch", seed, i)
			}
		}
	}
}
