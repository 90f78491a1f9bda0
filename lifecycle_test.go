// Lifecycle guards for the streamed analysis: every way a collection can
// die early — an injected emulator fault, a cancelled context, a
// malformed record — must surface as an error with nil results and leave
// no state behind, so a clean run afterwards still matches the
// fault-free analysis bit for bit.
package repro_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deadness"
	"repro/internal/emu"
	"repro/internal/faults"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/workload"
)

// requireSameAnalysis fails unless a clean collection of prog matches the
// reference analysis record for record.
func requireSameAnalysis(t *testing.T, tag string, prog *program.Program, budget int, clean *deadness.Analysis) {
	t.Helper()
	tr, a, _, err := emu.CollectAnalyzedCtx(context.Background(), prog, budget, nil, "")
	if err != nil {
		t.Fatalf("%s: clean run: %v", tag, err)
	}
	if tr.Len() != len(clean.Facts) {
		t.Fatalf("%s: clean run has %d records, reference %d", tag, tr.Len(), len(clean.Facts))
	}
	for seq := 0; seq < tr.Len(); seq++ {
		f, want := a.Facts[seq], clean.Facts[seq]
		if f.Kind() != want.Kind() || a.Resolve[seq] != clean.Resolve[seq] ||
			f.EverRead() != want.EverRead() || f.Candidate() != want.Candidate() {
			t.Fatalf("%s: analysis diverges at seq %d", tag, seq)
		}
	}
}

// TestCollectAnalyzedLifecycleUnderFaults is the chaos regression for the
// stream teardown path: with per-instruction faults injected at emu.step,
// every aborted collection must return nil results, a collection the
// injector let finish must match the fault-free one, and a clean run
// afterwards must still match the fault-free analysis bit for bit.
func TestCollectAnalyzedLifecycleUnderFaults(t *testing.T) {
	prof := workload.Suite()[0]
	prog, _, err := prof.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000

	cleanTr, clean, _, err := emu.CollectAnalyzedCtx(context.Background(), prog, budget, nil, prof.Name)
	if err != nil {
		t.Fatal(err)
	}

	aborted := 0
	for seed := uint64(1); seed <= 12; seed++ {
		in := faults.NewInjector(seed).
			Arm(faults.SiteEmuStep, faults.Rule{Kind: faults.Permanent, Rate: 0.0002, Max: 1})
		faults.Set(in)
		tr, a, _, err := emu.CollectAnalyzedCtx(context.Background(), prog, budget, nil, prof.Name)
		faults.Set(nil)
		if err != nil {
			aborted++
			if tr != nil || a != nil {
				t.Fatalf("seed=%d: non-nil results alongside error %v", seed, err)
			}
			continue
		}
		if a.Candidates() != clean.Candidates() || tr.Len() != cleanTr.Len() {
			t.Fatalf("seed=%d: clean run diverged after faults", seed)
		}
	}
	if aborted == 0 {
		t.Fatal("injector never fired; chaos test is vacuous")
	}
	requireSameAnalysis(t, "post-chaos", prog, budget, clean)
}

// TestCollectAnalyzedLifecycleUnderCancellation is the companion
// regression for the other way a stream dies early: the caller's context
// is cancelled mid-collection (a daemon client disconnecting). The abort
// must surface context.Canceled with nil results, and a clean run
// afterwards must still match the reference.
func TestCollectAnalyzedLifecycleUnderCancellation(t *testing.T) {
	prof := workload.Suite()[0]
	prog, _, err := prof.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60_000

	cleanTr, clean, _, err := emu.CollectAnalyzedCtx(context.Background(), prog, budget, nil, prof.Name)
	if err != nil {
		t.Fatal(err)
	}

	// Sweep cancellation points from "before the first instruction" up
	// through mid-emulation; wall-clock delays make individual trials
	// nondeterministic, so the assertions only distinguish "aborted
	// cleanly" from "completed identically". The -1 sentinel cancels
	// before the call even starts — the one trial guaranteed to abort
	// however fast the collection runs.
	aborted := 0
	delays := []time.Duration{-1, 0, 20 * time.Microsecond, 100 * time.Microsecond,
		500 * time.Microsecond, 2 * time.Millisecond}
	for _, d := range delays {
		ctx, cancel := context.WithCancel(context.Background())
		var timer *time.Timer
		if d < 0 {
			cancel()
		} else {
			timer = time.AfterFunc(d, cancel)
		}
		tr, a, _, err := emu.CollectAnalyzedCtx(ctx, prog, budget, nil, prof.Name)
		if timer != nil {
			timer.Stop()
		}
		cancel()
		if err != nil {
			aborted++
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("delay=%v: error %v, want context.Canceled", d, err)
			}
			if tr != nil || a != nil {
				t.Fatalf("delay=%v: non-nil results alongside cancellation", d)
			}
			continue
		}
		if a.Candidates() != clean.Candidates() || tr.Len() != cleanTr.Len() {
			t.Fatalf("delay=%v: completed run diverged from reference", d)
		}
	}
	if aborted == 0 {
		t.Fatal("no trial was cancelled mid-collection; test is vacuous")
	}
	requireSameAnalysis(t, "post-cancellation", prog, budget, clean)
}

// TestLinkAndAnalyzeUsesOpcodeWidth pins that the one analysis walk reads
// every access width from the opcode: records pushed with a width no
// opcode has, across three chunks, read back, link and analyze exactly as
// the same records pushed with their opcodes' widths.
func TestLinkAndAnalyzeUsesOpcodeWidth(t *testing.T) {
	const cs = trace.ChunkSize
	recs := synthRecords(2*cs+100, true)
	bad := append([]trace.Record(nil), recs...)
	corrupted := 0
	for i := range bad {
		if bad[i].Op.IsMem() && i%3 == 0 {
			bad[i].Width = 3 // no opcode has width 3
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no record corrupted; the test is vacuous")
	}
	want, got := trace.FromRecords(recs), trace.FromRecords(bad)
	wa, err := deadness.LinkAndAnalyze(want)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := deadness.LinkAndAnalyze(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records(), want.Records()) {
		t.Error("records pushed with malformed widths read back differently")
	}
	if !reflect.DeepEqual(ga, wa) {
		t.Error("records pushed with malformed widths analyze differently")
	}
}

// TestProfileAdoptionUnderCancellation is the end-to-end adoption
// regression: a request that initiates a cold profile build and is
// cancelled mid-build must not doom the build when another request is
// waiting on it — the survivor adopts the in-flight work (one build
// total, counted in artifact_adoptions) and receives a result
// bit-identical to a clean run.
func TestProfileAdoptionUnderCancellation(t *testing.T) {
	const budget = 60_000
	bench := workload.Suite()[0].Name

	// Fault-free reference.
	clean, err := core.NewWorkspace(budget).ProfileOf(bench)
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Summary

	// Hold the build's start open so the second request reliably joins
	// while the first one's build is in flight.
	in := faults.NewInjector(3).Arm(faults.SiteWorkspaceMemo,
		faults.Rule{Kind: faults.Delay, Rate: 1, Max: 1, Delay: 150 * time.Millisecond})
	faults.Set(in)
	defer faults.Set(nil)

	w := core.NewWorkspaceWorkers(budget, 2)
	octx, ocancel := context.WithCancel(context.Background())
	defer ocancel()
	ownerErr := make(chan error, 1)
	go func() {
		_, err := w.ProfileOfCtx(octx, bench)
		ownerErr <- err
	}()
	var got deadness.Summary
	waiterErr := make(chan error, 1)
	go func() {
		p, err := w.ProfileOfCtx(context.Background(), bench)
		if err == nil {
			got = p.Summary
		}
		waiterErr <- err
	}()

	// Both requests share one in-flight build once a waiter is counted;
	// then cancel the first requester mid-build.
	deadline := time.Now().Add(10 * time.Second)
	for w.ArtifactStats().Kinds[core.KindProfile].InflightWaits < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never attached to the in-flight build")
		}
		time.Sleep(time.Millisecond)
	}
	ocancel()

	if err := <-ownerErr; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled requester: %v", err)
	}
	if err := <-waiterErr; err != nil {
		t.Fatalf("surviving requester failed after the originator's cancellation: %v", err)
	}
	if got != want {
		t.Errorf("adopted build diverges from clean run:\n got %+v\nwant %+v", got, want)
	}
	st := w.ArtifactStats().Kinds[core.KindProfile]
	if st.Misses != 1 {
		t.Errorf("profile builds = %d, want exactly 1 (adoption, not restart)", st.Misses)
	}
	if st.Adoptions != 1 {
		t.Errorf("adoptions = %d, want 1", st.Adoptions)
	}
	if in.Fired(faults.SiteWorkspaceMemo) == 0 {
		t.Error("delay fault never fired; the mid-build window is vacuous")
	}
}
