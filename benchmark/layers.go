package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/deadness"
	"repro/internal/dip"
	"repro/internal/emu"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/workload"
)

// span is one timed call the benchmark made into a layer. Spans are kept
// in memory and written out when the run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the tracer's origin
	End    float64 `json:"end_s"`
	Insts  int64   `json:"insts,omitempty"`
}

// tracer records spans from one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) start(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.origin).Seconds()})
	return len(t.spans)
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int, insts int64) float64 {
	s := &t.spans[id-1]
	s.End = time.Since(t.origin).Seconds()
	s.Insts = insts
	return s.End - s.Start
}

// layerResult is what the layer replay worker reports.
type layerResult struct {
	Rates map[string]float64 `json:"rates"`
	Spans []span             `json:"spans"`
}

// replayLayers times the public call of each layer over every suite
// benchmark at the job's budget, one call at a time, each inside a span:
// compile, emulate with no sink, emulate while recording the trace, the
// fused link+analyze, the streamed CollectAnalyzed path production uses,
// a CFI predictor evaluation, the two pipeline machines, the trace codec,
// and a profile load from a warm disk tier.
func replayLayers(j job) (*layerResult, error) {
	tr := newTracer()
	root := tr.start(0, "replay")
	var compileMS, diskMS []float64
	var insts, simInsts, codecBytes int64
	var runT, recordT, analyzeT, collectT, dipT, simT, encT, decT float64
	elim := pipeline.ContendedConfig()
	elim.Elim = true
	machines := []pipeline.Config{elim, pipeline.ClusteredConfig()}
	pred, err := dip.Spec{Flavor: dip.FlavorCFI, Config: dip.DefaultConfig()}.New()
	if err != nil {
		return nil, err
	}
	emulate := func(prog *program.Program, sink func(*trace.Record)) (int, error) {
		m := emu.New(prog)
		if err := m.Run(j.Budget, sink); err != nil && !errors.Is(err, emu.ErrBudget) {
			return 0, err
		}
		return m.Steps, nil
	}
	for _, name := range core.SuiteNames() {
		b := tr.start(root, name)
		p, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		s := tr.start(b, "compiler.Compile")
		prog, _, err := p.Compile(nil)
		if err != nil {
			return nil, err
		}
		compileMS = append(compileMS, 1000*tr.end(s, 0))

		s = tr.start(b, "emu.Machine.Run nil sink")
		n, err := emulate(prog, nil)
		if err != nil {
			return nil, err
		}
		runT += tr.end(s, int64(n))
		insts += int64(n)

		t := trace.NewWithCapacity(min(j.Budget, 1<<20))
		s = tr.start(b, "emu.Machine.Run trace.Push")
		if _, err := emulate(prog, t.Push); err != nil {
			return nil, err
		}
		recordT += tr.end(s, int64(t.Len()))

		s = tr.start(b, "deadness.LinkAndAnalyze")
		an, err := deadness.LinkAndAnalyze(t)
		if err != nil {
			return nil, err
		}
		analyzeT += tr.end(s, int64(t.Len()))

		s = tr.start(b, "dip.Predictor.Evaluate")
		if _, err := pred.Evaluate(t, an); err != nil {
			return nil, err
		}
		dipT += tr.end(s, int64(t.Len()))

		for _, cfg := range machines {
			s = tr.start(b, "pipeline.Run "+cfg.Label())
			if _, err := pipeline.Run(t, an, cfg); err != nil {
				return nil, err
			}
			simT += tr.end(s, int64(t.Len()))
			simInsts += int64(t.Len())
		}

		var buf bytes.Buffer
		s = tr.start(b, "trace.Trace.SaveLinked")
		if err := t.SaveLinked(&buf); err != nil {
			return nil, err
		}
		encT += tr.end(s, int64(t.Len()))
		codecBytes += int64(buf.Len())
		t.Release()
		s = tr.start(b, "trace.LoadBytes")
		back, err := trace.LoadBytes(buf.Bytes(), 0)
		if err != nil {
			return nil, err
		}
		decT += tr.end(s, int64(back.Len()))
		back.Release()

		s = tr.start(b, "emu.CollectAnalyzed")
		ct, _, _, err := emu.CollectAnalyzed(prog, j.Budget)
		if err != nil {
			return nil, err
		}
		collectT += tr.end(s, int64(ct.Len()))
		ct.Release()

		ms, err := diskProfileGet(tr, b, j, name)
		if err != nil {
			return nil, err
		}
		diskMS = append(diskMS, ms)
		tr.end(b, 0)
	}
	tr.end(root, insts)

	mi := float64(insts) / 1e6
	collectRate := mi / collectT
	return &layerResult{Spans: tr.spans, Rates: map[string]float64{
		"compiler.compile_ms":              median(compileMS),
		"emu.run_minst_per_s":              mi / runT,
		"trace.record_ns_per_inst":         (recordT - runT) / float64(insts) * 1e9,
		"deadness.analyze_minst_per_s":     mi / analyzeT,
		"emu.collect_analyzed_minst_per_s": collectRate,
		"emu.stream_efficiency":            collectRate / (mi / (recordT + analyzeT)),
		"dip.eval_minst_per_s":             mi / dipT,
		"pipeline.sim_kinst_per_s":         float64(simInsts) / simT / 1e3,
		"trace.encode_mb_per_s":            float64(codecBytes) / encT / 1e6,
		"trace.decode_mb_per_s":            float64(codecBytes) / decT / 1e6,
		"artifact.disk_profile_get_ms":     median(diskMS),
	}}, nil
}

// diskProfileGet builds one profile through a workspace with a fresh disk
// tier, then times ProfileOf on a second fresh workspace over that tier:
// a disk read, CRC check, decode and recompile, with no build.
func diskProfileGet(tr *tracer, parent int, j job, name string) (float64, error) {
	dir := filepath.Join(j.CacheDir, name)
	w := core.NewWorkspace(j.Budget)
	if err := w.OpenDiskCache(dir, 0); err != nil {
		return 0, err
	}
	if _, err := w.ProfileOf(name); err != nil {
		return 0, err
	}
	w = core.NewWorkspace(j.Budget)
	if err := w.OpenDiskCache(dir, 0); err != nil {
		return 0, err
	}
	s := tr.start(parent, "core.Workspace.ProfileOf disk tier")
	if _, err := w.ProfileOf(name); err != nil {
		return 0, err
	}
	ms := 1000 * tr.end(s, 0)
	if ks := w.ArtifactStats().Kinds[core.KindProfile]; ks.DiskHits != 1 || ks.Misses != 0 {
		return 0, fmt.Errorf("profile %s was not served from the disk tier: %+v", name, ks)
	}
	return ms, nil
}

// layerPhases maps each layer to the phase name the workspace's metrics
// collector records it under.
var layerPhases = []struct{ layer, phase string }{
	{"compiler", "compile"},
	{"emu", "emulate"},
	{"deadness", "analyze"},
	{"dip", "predict"},
	{"pipeline", "simulate"},
}

var artifactKinds = []artifact.Kind{core.KindProgram, core.KindProfile, core.KindPredEval, core.KindMachine}

// layers runs the layer replay worker and assembles the per-layer metrics
// from it and from the traced pass, then writes the run's spans.
func (r *runner) layers(ctx context.Context) error {
	budget := r.cfg.scale.SuiteBudget
	if r.cfg.workload == profileBuild {
		budget = r.cfg.scale.ProfileBudget
	}
	sp := r.tr.start(r.root, "layer replay")
	var lr layerResult
	if _, err := runWorker(ctx, r.cfg.exe, roleLayers,
		job{Budget: budget, CacheDir: filepath.Join(r.dir, "replay")}, r.cfg.log, &lr); err != nil {
		return err
	}
	r.tr.end(sp, 0)

	out := lr.Rates
	tp := r.traced
	var covered float64
	for _, lp := range layerPhases {
		ph := tp.phases[lp.phase]
		share := ph.WallSeconds / (tp.wall * float64(tp.workers))
		out[lp.layer+".busy_share"] = share
		out[lp.layer+".calls"] = float64(ph.Count)
		covered += share
	}
	out["core.layer_coverage"] = covered
	out["core.trace_overhead"] = tp.wall / median(r.walls)
	var hits, lookups float64
	for _, k := range artifactKinds {
		ks := tp.artifacts.Kinds[k]
		out["artifact.hits."+string(k)] = float64(ks.Hits)
		out["artifact.misses."+string(k)] = float64(ks.Misses)
		out["artifact.disk_hits."+string(k)] = float64(ks.DiskHits)
		hits += float64(ks.Hits)
		lookups += float64(ks.Hits + ks.Misses + ks.DiskHits)
	}
	out["artifact.mem_hit_ratio"] = 0
	if lookups > 0 {
		out["artifact.mem_hit_ratio"] = hits / lookups
	}
	srv := tp.server
	if srv == nil {
		srv = &serverShares{}
	}
	out["server.queue_share"], out["server.exec_share"], out["server.transport_share"] = srv.queue, srv.exec, srv.transport
	out["server.coalesced"], out["server.shed"], out["server.retries"] = srv.coalesced, srv.shed, srv.retries
	r.res.Layers = out
	return r.writeSpans(lr.Spans)
}

// writeSpans writes the run's own spans and the replay worker's spans to
// spans-<workload>-seed<n>.json in the working directory.
func (r *runner) writeSpans(replay []span) error {
	r.tr.end(r.root, 0)
	b, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Run      []span `json:"run"`
		Replay   []span `json:"replay"`
	}{r.cfg.workload, r.cfg.seed, r.tr.spans, replay}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.cfg.work, fmt.Sprintf("spans-%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(r.cfg.log, "%s: spans written to %s\n", r.cfg.workload, path)
	return nil
}
