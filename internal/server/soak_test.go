package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dip"
	"repro/internal/faults"
	"repro/internal/metrics"
)

// TestServerChaosSoak holds the daemon to the chaos contract of the
// engine's own soak (core.TestChaosSoak), through the full HTTP stack:
// with faults injected at the server's own sites (server.accept,
// server.handle) and the engine sites underneath (pool.task,
// workspace.memo, core.simulate), a deterministic load run against a
// small, shed-prone admission queue must
//
//  1. terminate, with every request either completing or failing with a
//     structured status (no hangs, no invalid responses),
//  2. serve completed responses bit-identical to what a clean direct
//     workspace produces for the same spec — shed-retry loops and
//     injected faults must never surface a corrupted result,
//  3. attach Retry-After to every 429,
//  4. drain cleanly afterwards, persisting the one resident artifact
//     whose write-through an injected artifact.disk fault dropped.
//
// Run with -race via `make soak`: the injector schedule and the
// admission interleavings make this the concurrency soak for the whole
// service path.
func TestServerChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak runs the suite through the daemon")
	}
	const budget = 60_000

	// --- clean references, computed before any fault is armed ---
	expIDs := []string{"e1", "e2", "e5"}
	clean := core.NewWorkspaceWorkers(budget, 0)
	cleanExps, err := clean.RunExperiments(context.Background(), expIDs)
	if err != nil {
		t.Fatalf("clean experiments: %v", err)
	}
	wantRender := make(map[string]string, len(expIDs))
	for _, e := range cleanExps {
		wantRender[e.ID] = e.Render()
	}
	wantProfile := make(map[string][]byte)
	for _, bench := range core.SuiteNames() {
		p, err := clean.ProfileOf(bench)
		if err != nil {
			t.Fatalf("clean profile %s: %v", bench, err)
		}
		b, _ := json.Marshal(ProfileStats{Bench: bench, Budget: budget, Summary: p.Summary,
			Locality: p.Locality, DeadFraction: p.Summary.DeadFraction()})
		wantProfile[bench] = b
	}
	cfiSpec := dip.Spec{Flavor: dip.FlavorCFI, Config: dip.DefaultConfig()}
	wantEval := make(map[string]dip.Result)
	for _, bench := range core.SuiteNames() {
		r, err := clean.EvalPredictor(bench, cfiSpec)
		if err != nil {
			t.Fatalf("clean predeval %s: %v", bench, err)
		}
		wantEval[bench] = r
	}

	// --- arm chaos ---
	in := faults.NewInjector(1789).
		Arm(SiteAccept, faults.Rule{Kind: faults.Transient, Rate: 0.08, Max: 6}).
		Arm(SiteHandle, faults.Rule{Kind: faults.Transient, Rate: 0.15, Max: 10}).
		Arm(faults.SitePoolTask, faults.Rule{Kind: faults.Transient, Rate: 0.05, Max: 8}).
		Arm(faults.SiteWorkspaceMemo, faults.Rule{Kind: faults.Transient, Rate: 0.1, Max: 8}).
		Arm(faults.SiteSimulate, faults.Rule{Kind: faults.Transient, Rate: 0.05, Max: 4}).
		// The run's first disk write fails, leaving one resident artifact
		// that only the drain can persist.
		Arm(faults.SiteArtifactDisk, faults.Rule{Kind: faults.Transient, Rate: 1, Max: 1})
	mc := metrics.New()
	in.Metrics = mc
	faults.Set(in)
	defer faults.Set(nil)

	// --- the daemon under test: shed-prone queue, disk tier for the
	// drain's persistence ---
	w := core.NewWorkspaceWorkers(budget, 2)
	w.Metrics = mc
	if err := w.OpenDiskCache(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Workspace:      w,
		QueueDepth:     2,
		DefaultTimeout: time.Minute,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	verify := func(kind string, body []byte) error {
		switch kind {
		case "experiment":
			var er ExperimentResult
			if err := json.Unmarshal(body, &er); err != nil {
				return err
			}
			if want, ok := wantRender[er.ID]; !ok || er.Render != want {
				return fmt.Errorf("experiment %s render diverges from clean run", er.ID)
			}
		case "profile":
			var ps ProfileStats
			if err := json.Unmarshal(body, &ps); err != nil {
				return err
			}
			got, _ := json.Marshal(ps)
			if !bytes.Equal(got, wantProfile[ps.Bench]) {
				return fmt.Errorf("profile %s diverges from clean run:\nserver: %s\nclean:  %s",
					ps.Bench, got, wantProfile[ps.Bench])
			}
		case "predeval":
			var pr PredEvalResult
			if err := json.Unmarshal(body, &pr); err != nil {
				return err
			}
			if !reflect.DeepEqual(pr.Result, wantEval[pr.Bench]) {
				return fmt.Errorf("predeval %s diverges from clean run: %+v vs %+v",
					pr.Bench, pr.Result, wantEval[pr.Bench])
			}
		}
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := RunLoad(ctx, ts.URL, LoadConfig{
		Requests:       36,
		Concurrency:    6,
		Burst:          3,
		Seed:           11,
		Timeout:        time.Minute,
		MaxShedRetries: 4,
		Verify:         verify,
	})
	if err != nil {
		t.Fatalf("load run: %v (report %+v)", err, rep)
	}
	faults.Set(nil)

	// 1. Everything terminated with a structured outcome.
	if rep.Sent != 36 {
		t.Errorf("sent %d requests, want 36", rep.Sent)
	}
	if rep.OK == 0 {
		t.Fatalf("no request completed under chaos: %+v", rep)
	}
	if rep.OK+rep.Failed != rep.Sent {
		t.Errorf("OK %d + Failed %d != Sent %d", rep.OK, rep.Failed, rep.Sent)
	}

	// 2. Completed responses bit-identical to the clean workspace.
	if rep.Invalid != 0 {
		t.Errorf("%d completed responses diverged from the clean references", rep.Invalid)
	}

	// 3. Every 429 carried Retry-After.
	if rep.ShedNoHint != 0 {
		t.Errorf("%d shed responses lacked Retry-After", rep.ShedNoHint)
	}

	// Non-vacuity: the injector really fired, at the server's own sites
	// among others.
	var injected uint64
	for _, site := range in.Sites() {
		injected += in.Fired(site)
	}
	if injected == 0 {
		t.Fatal("soak is vacuous: no fault fired")
	}
	if in.Fired(SiteAccept)+in.Fired(SiteHandle) == 0 {
		t.Error("no fault fired at the server's own sites")
	}

	// 4. Clean drain, which writes exactly the artifact whose
	// write-through the injected disk fault dropped.
	if n := in.Fired(faults.SiteArtifactDisk); n != 1 {
		t.Fatalf("artifact.disk fault fired %d times, want 1", n)
	}
	diskWrites := func() (n int64) {
		for _, ks := range w.ArtifactStats().Kinds {
			n += ks.DiskWrites
		}
		return n
	}
	before := diskWrites()
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain forced cancellation: %v", err)
	}
	if !s.Draining() {
		t.Error("server not draining after Drain")
	}
	if got := diskWrites() - before; got != 1 {
		t.Errorf("drain wrote %d artifacts to the disk tier, want 1 (the dropped write-through)", got)
	}

	// Nothing is left queued.
	if _, queued := s.adm.snapshot(); queued != 0 {
		t.Errorf("queued = %d after drain, want 0", queued)
	}
}
