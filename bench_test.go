// Benchmark harness: one testing.B benchmark per reproduced table/figure
// (experiments E1-E21, see DESIGN.md), plus micro-benchmarks of the
// substrates. Each experiment benchmark reports its headline metrics with
// b.ReportMetric, so `go test -bench=.` regenerates the numbers recorded
// in EXPERIMENTS.md (at a reduced instruction budget; use cmd/experiments
// for the full-budget tables).
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/deadness"
	"repro/internal/dip"
	"repro/internal/emu"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchBudget trades fidelity for wall-clock time; the shapes survive well
// below the full 1M-instruction budget.
const benchBudget = 250_000

func runExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		w := core.NewWorkspace(benchBudget)
		exps, err := w.RunExperiments(context.Background(), []string{id})
		if err != nil {
			b.Fatal(err)
		}
		e := exps[0]
		if i == b.N-1 {
			for _, m := range metrics {
				v, ok := e.Metrics[m]
				if !ok {
					b.Fatalf("experiment %s has no metric %q: %v", id, m, e.Metrics)
				}
				b.ReportMetric(100*v, m+"_%")
			}
		}
	}
}

func BenchmarkE1DeadFraction(b *testing.B) {
	runExperiment(b, "e1", "dead_min", "dead_max", "dead_mean")
}

func BenchmarkE2PartiallyDead(b *testing.B) {
	runExperiment(b, "e2", "dead_from_partial_mean")
}

func BenchmarkE3SchedulingAblation(b *testing.B) {
	runExperiment(b, "e3", "dead_mean_with_hoist", "dead_mean_no_hoist")
}

func BenchmarkE4Locality(b *testing.B) {
	runExperiment(b, "e4", "top16_coverage_mean", "mostly_dead_share_mean")
}

func BenchmarkE5Predictor(b *testing.B) {
	runExperiment(b, "e5", "coverage_mean", "accuracy_mean")
}

func BenchmarkE6CFIAblation(b *testing.B) {
	runExperiment(b, "e6", "cfi_accuracy_mean", "counter_accuracy_mean",
		"cfi_coverage_mean", "counter_coverage_mean")
}

func BenchmarkE7StateSweep(b *testing.B) {
	runExperiment(b, "e7")
}

func BenchmarkE8Resources(b *testing.B) {
	runExperiment(b, "e8", "alloc_reduction_mean", "rf_read_reduction_mean",
		"rf_write_reduction_mean", "dcache_reduction_mean")
}

func BenchmarkE9Speedup(b *testing.B) {
	runExperiment(b, "e9", "speedup_mean", "speedup_max")
}

func BenchmarkE10Sensitivity(b *testing.B) {
	runExperiment(b, "e10", "speedup_at_40_regs", "speedup_uncontended")
}

func BenchmarkE11BpredSensitivity(b *testing.B) {
	runExperiment(b, "e11", "coverage_static-taken", "coverage_gshare-4k", "coverage_oracle")
}

func BenchmarkE12StaticDCE(b *testing.B) {
	runExperiment(b, "e12", "dead_mean", "dead_mean_dce")
}

func BenchmarkE13OracleLimit(b *testing.B) {
	runExperiment(b, "e13", "dip_speedup_mean", "oracle_speedup_mean", "captured_mean")
}

func BenchmarkE14Confidence(b *testing.B) {
	runExperiment(b, "e14", "coverage_b2_t2", "accuracy_b2_t2")
}

func BenchmarkE15MemoryDepth(b *testing.B) {
	runExperiment(b, "e15", "flat_speedup_mean", "deep_speedup_mean")
}

func BenchmarkE16ResolveDistance(b *testing.B) {
	runExperiment(b, "e16", "within_rob_mean")
}

func BenchmarkE17StaticHints(b *testing.B) {
	runExperiment(b, "e17", "hint50_coverage_mean", "hint50_accuracy_mean",
		"dip_coverage_mean", "dip_accuracy_mean")
}

func BenchmarkE18WindowBias(b *testing.B) {
	runExperiment(b, "e18", "dead_mean_at_10000", "dead_mean_full")
}

func BenchmarkE19IneffRates(b *testing.B) {
	runExperiment(b, "e19", "ineff_mean", "silent_store_rate_mean")
}

func BenchmarkE20SteerPredictors(b *testing.B) {
	runExperiment(b, "e20", "steer_coverage_bimodal-4k", "steer_accuracy_bimodal-4k")
}

func BenchmarkE21ClusteredIPC(b *testing.B) {
	runExperiment(b, "e21", "speedup_steer_mean", "narrow_share_mean")
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.

// benchProgram is a small mixed loop used by the substrate benchmarks.
const benchProgramSrc = `
.data
buf: .space 4096
.text
main:
    addi r1, r0, 5000
    la   r2, buf
    addi r5, r0, 0
loop:
    andi r3, r1, 511
    slli r3, r3, 3
    add  r3, r2, r3
    sd   r1, 0(r3)
    ld   r4, 0(r3)
    add  r5, r5, r4
    andi r6, r1, 7
    bne  r6, r0, skip
    xor  r5, r5, r1
skip:
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r5
    halt
`

func BenchmarkEmulator(b *testing.B) {
	prog, err := asm.Assemble("bench", benchProgramSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	insts := 0
	for i := 0; i < b.N; i++ {
		m := emu.New(prog)
		if err := m.Run(1_000_000, nil); err != nil {
			b.Fatal(err)
		}
		insts = m.Steps
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkEmulatorRecord is BenchmarkEmulator with every committed
// instruction recorded into a columnar trace through trace.Push, the
// collect path's sink, so the gap between the two is the cost of trace
// recording alone. Each iteration allocates its trace's chunks afresh,
// as a profile build does.
func BenchmarkEmulatorRecord(b *testing.B) {
	prog, err := asm.Assemble("bench", benchProgramSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	insts := 0
	for i := 0; i < b.N; i++ {
		t := trace.NewWithCapacity(1_000_000)
		m := emu.New(prog)
		if err := m.Run(1_000_000, t.Push); err != nil {
			b.Fatal(err)
		}
		insts = t.Len()
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkDeadnessOracle measures the fused single-pass substrate: one
// walk derives both the def-use links and the oracle's forward facts.
// Each iteration re-links the collected trace with LinkAndAnalyze, so it
// does the full raw-trace-to-analysis work.
func BenchmarkDeadnessOracle(b *testing.B) {
	prog, err := asm.Assemble("bench", benchProgramSrc)
	if err != nil {
		b.Fatal(err)
	}
	tr, _, _, err := emu.CollectAnalyzed(prog, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deadness.LinkAndAnalyze(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkCollectAnalyzed measures the streaming emulate→analyze path
// end to end: completed chunks feed the fused oracle in-line as the
// emulator produces them. Each iteration allocates its trace and writer
// map afresh, as a profile build does.
func BenchmarkCollectAnalyzed(b *testing.B) {
	prog, err := asm.Assemble("bench", benchProgramSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	insts := 0
	for i := 0; i < b.N; i++ {
		tr, _, _, err := emu.CollectAnalyzed(prog, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		insts = tr.Len()
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

func BenchmarkDIPLookup(b *testing.B) {
	p, err := dip.New(dip.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for pc := 0; pc < 256; pc++ {
		p.Update(pc, uint16(pc&3), true)
		p.Update(pc, uint16(pc&3), true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(i&1023, uint16(i&3))
	}
}

func BenchmarkGshare(b *testing.B) {
	g := bpred.NewGshare(12, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := i & 4095
		g.Update(pc, g.Predict(pc) != (i&7 == 0))
	}
}

// BenchmarkPipeline measures one simulation on the path the workspace
// runs: the trace's prediction column is built once, outside the timed
// loop, and every run reads it (pipeline.RunWith).
func BenchmarkPipeline(b *testing.B) {
	prog, err := asm.Assemble("bench", benchProgramSrc)
	if err != nil {
		b.Fatal(err)
	}
	tr, an, _, err := emu.CollectAnalyzed(prog, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	dir, err := bpred.NewDirByName(dip.DefaultDirName)
	if err != nil {
		b.Fatal(err)
	}
	preds := bpred.Predict(tr, dir, false)
	cfg := pipeline.ContendedConfig()
	cfg.Elim = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.RunWith(tr, an, cfg, preds); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e3, "Kinst/s")
}

// ineffProgramSrc is an ineffectuality-dense loop: one silent store and a
// three-deep x+0 chain per iteration alongside effectual work, so the
// steered machine has both clusters busy and the analysis walk sees hint
// bits on most records.
const ineffProgramSrc = `
.data
buf: .space 64
.text
main:
    addi r1, r0, 8000
    la   r2, buf
    addi r3, r0, 9
    sd   r3, 0(r2)
loop:
    sd   r3, 0(r2)
    add  r4, r3, r0
    add  r5, r4, r0
    add  r6, r5, r0
    add  r7, r1, r6
    sd   r7, 8(r2)
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r6
    halt
`

// BenchmarkClusteredPipeline compares the timing model with and without
// the two-cluster steered configuration, on a mostly-live trace (the
// steering overhead bound: clustered must stay within a few percent of
// single-cluster when there is little to steer) and on an
// ineffectuality-dense trace (where the IPC delta and narrow-cluster
// occupancy are the payoff).
func BenchmarkClusteredPipeline(b *testing.B) {
	for _, pr := range []struct{ name, src string }{
		{"live", benchProgramSrc},
		{"ineff", ineffProgramSrc},
	} {
		prog, err := asm.Assemble("bench", pr.src)
		if err != nil {
			b.Fatal(err)
		}
		tr, an, _, err := emu.CollectAnalyzed(prog, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			cfg  pipeline.Config
		}{
			{"single", pipeline.ContendedConfig()},
			{"clustered", pipeline.ClusteredConfig()},
		} {
			b.Run(pr.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				var st pipeline.Stats
				for i := 0; i < b.N; i++ {
					st, err = pipeline.Run(tr, an, mode.cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(st.IPC(), "IPC")
				if mode.cfg.Clustered() {
					b.ReportMetric(100*float64(st.SteeredNarrow)/float64(st.Committed), "narrow_%")
				}
				b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e3, "Kinst/s")
			})
		}
	}
}

// BenchmarkIneffAnalysis measures the fused link+analyze walk on an
// ineffectuality-dense trace: the same single pass derives the deadness
// and the Ineff fact columns, so the Minst/s delta against
// BenchmarkDeadnessOracle (mostly hint-free records) bounds the cost of
// carrying the second column.
func BenchmarkIneffAnalysis(b *testing.B) {
	prog, err := asm.Assemble("bench", ineffProgramSrc)
	if err != nil {
		b.Fatal(err)
	}
	tr, _, _, err := emu.CollectAnalyzed(prog, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var s deadness.Summary
	for i := 0; i < b.N; i++ {
		a, err := deadness.LinkAndAnalyze(tr)
		if err != nil {
			b.Fatal(err)
		}
		s = a.Summarize(tr, nil)
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
	b.ReportMetric(100*s.IneffFraction(), "ineff_%")
}

// BenchmarkWorkloadCompile measures the compile layer: one suite
// benchmark from IR through every pass to a program, the work each of a
// cold suite's 33 compiles does (11 of them start profile builds, the
// other 22 the no-hoist and with-DCE facts builds).
func BenchmarkWorkloadCompile(b *testing.B) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := prof.Compile(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// gccProfile profiles one suite benchmark at the 1M CLI budget.
func gccProfile(b *testing.B) *core.ProfileResult {
	prof, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Profile(prof, nil, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkPredictorEvaluate measures trace-level predictor evaluation:
// the default CFI spec (E5's design point) over one suite benchmark's 1M
// profile, the walk behind every predeval artifact. As in the workspace,
// the profile's prediction column is built once, outside the timed loop,
// and every evaluation reads it.
func BenchmarkPredictorEvaluate(b *testing.B) {
	res := gccProfile(b)
	pred, err := dip.Spec{Flavor: dip.FlavorCFI, Config: dip.DefaultConfig()}.New()
	if err != nil {
		b.Fatal(err)
	}
	res.Predictions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pred.EvaluateWith(res.Trace, res.Analysis, res.Predictions); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Trace.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// predsSink keeps BenchmarkBranchPredictions' result live.
var predsSink *bpred.Predictions

// BenchmarkBranchPredictions measures one build of a prediction column,
// the walk each profile makes once for all its simulations and
// default-predictor evaluations: gshare-4k over one suite benchmark's 1M
// profile.
func BenchmarkBranchPredictions(b *testing.B) {
	res := gccProfile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := bpred.NewDirByName(dip.DefaultDirName)
		if err != nil {
			b.Fatal(err)
		}
		predsSink = bpred.Predict(res.Trace, dir, false)
	}
	b.ReportMetric(float64(res.Trace.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkTraceSaveLoad measures a round trip through the linked trace
// format the persistent artifact tier writes: SaveLinked, then LoadBytes,
// which restores the links instead of re-deriving them.
func BenchmarkTraceSaveLoad(b *testing.B) {
	prog, err := asm.Assemble("bench", benchProgramSrc)
	if err != nil {
		b.Fatal(err)
	}
	tr, _, _, err := emu.CollectAnalyzed(prog, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("linked", func(b *testing.B) {
		var buf bytes.Buffer
		if err := tr.SaveLinked(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := tr.SaveLinked(&buf); err != nil {
				b.Fatal(err)
			}
			if _, err := trace.LoadBytes(buf.Bytes(), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProfileDiskCache measures the persistent artifact tier's
// headline trade, run against run: "cold" is the first -cache-dir run
// (build the profile from scratch — emulate + link + analyze — and
// write it through to a fresh cache directory), "warm" is the second
// run over the populated directory (load the profile from disk instead
// of rebuilding). The cold/warm ns-per-op ratio is the warm-start
// speedup recorded in BENCH_7.json; the warm arm also asserts the
// zero-rebuild contract via the artifact counters.
func BenchmarkProfileDiskCache(b *testing.B) {
	const bench = "gzip"
	dir := b.TempDir()
	seed := core.NewWorkspace(benchBudget)
	if err := seed.OpenDiskCache(dir, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := seed.ProfileOf(bench); err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cold, err := os.MkdirTemp(b.TempDir(), "cold")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			w := core.NewWorkspace(benchBudget)
			if err := w.OpenDiskCache(cold, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := w.ProfileOf(bench); err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				ks := w.ArtifactStats().Kinds[core.KindProfile]
				if ks.Misses != 1 || ks.DiskWrites == 0 {
					b.Fatalf("cold iteration did not build and persist the profile: %+v", ks)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := core.NewWorkspace(benchBudget)
			if err := w.OpenDiskCache(dir, 0); err != nil {
				b.Fatal(err)
			}
			if _, err := w.ProfileOf(bench); err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				ks := w.ArtifactStats().Kinds[core.KindProfile]
				if ks.Misses != 0 || ks.DiskHits != 1 {
					b.Fatalf("warm iteration rebuilt the profile: %+v", ks)
				}
			}
		}
	})
}

// BenchmarkCoalescedLoad measures the service tier's redundant-work
// elimination end to end over real HTTP: each iteration starts a fresh
// daemon over a fresh workspace and issues profile requests against its
// cold store. "solo" is the one-request baseline, "burst8" fires 8
// identical requests concurrently, and "serial8" issues the same 8 back
// to back. Every request takes its own admission slot and reads the
// benchmark's default facts; the concurrent duplicates meet at that facts
// build in the artifact store, whose single-flight runs one build (over
// one profile build) for all of them, so burst8's ns/op should track
// serial8's, not 8x solo's. builds/burst counts facts-kind cache misses
// per iteration: 1 for all three. The benchmark fails if the profile kind
// missed a different number of times.
func BenchmarkCoalescedLoad(b *testing.B) {
	run := func(b *testing.B, requests int, concurrent bool) {
		body := `{"bench":"gzip"}`
		post := func(url string) error {
			resp, err := http.Post(url+"/v1/profile", "application/json", strings.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("profile request: status %d", resp.StatusCode)
			}
			return nil
		}
		var builds, profileBuilds int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w := core.NewWorkspaceWorkers(benchBudget, 2)
			mc := metrics.New()
			w.Metrics = mc
			s := server.New(server.Config{Workspace: w, QueueDepth: 32})
			ts := httptest.NewServer(s.Handler())
			b.StartTimer()
			if concurrent {
				var wg sync.WaitGroup
				errc := make(chan error, requests)
				for r := 0; r < requests; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errc <- post(ts.URL)
					}()
				}
				wg.Wait()
				close(errc)
				for err := range errc {
					if err != nil {
						b.Fatal(err)
					}
				}
			} else {
				for r := 0; r < requests; r++ {
					if err := post(ts.URL); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			ts.Close()
			ks := w.ArtifactStats().Kinds
			builds += ks[core.KindFacts].Misses
			profileBuilds += ks[core.KindProfile].Misses
			b.StartTimer()
		}
		b.StopTimer()
		if profileBuilds != builds {
			b.Fatalf("%d facts builds opened %d profile builds", builds, profileBuilds)
		}
		b.ReportMetric(float64(builds)/float64(b.N), "builds/burst")
	}
	b.Run("solo", func(b *testing.B) { run(b, 1, false) })
	b.Run("burst8", func(b *testing.B) { run(b, 8, true) })
	b.Run("serial8", func(b *testing.B) { run(b, 8, false) })
}

// BenchmarkEngineAllExperiments runs the full 21-experiment engine on a
// shared concurrent workspace, reporting how many machine simulations ran
// versus how many were served from the (benchmark, config) memo — the
// dedup the engine exists to provide. It runs after the substrate
// micro-benchmarks (Go executes benchmarks in source order), because its
// heap footprint dwarfs theirs.
func BenchmarkEngineAllExperiments(b *testing.B) {
	ids := core.ExperimentIDs()
	for i := 0; i < b.N; i++ {
		w := core.NewWorkspace(benchBudget)
		if _, err := w.RunExperiments(context.Background(), ids); err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			ks := w.ArtifactStats().Kinds
			b.ReportMetric(float64(ks[core.KindMachine].Misses), "sims")
			b.ReportMetric(float64(ks[core.KindMachine].Hits), "memo-hits")
			b.ReportMetric(float64(ks[core.KindProfile].Misses), "profiles")
		}
	}
}
