// Golden guard for the cycle-level timing model. Every machine-config
// family the experiments simulate (E8-E10, E13, E15, E19-E21), each with
// elimination off and on, plus the oracle limit study and a one-write-port
// machine that forces the register-file write-port retry path, is
// simulated over all eleven suite benchmarks at a reduced budget. Each
// result is pinned by its cycle count and a SHA-256 of the full Stats
// encoding, so a scheduler or data-structure change in internal/pipeline
// must reproduce every counter bit for bit.
package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

const (
	pipelineGoldenBudget = 20_000
	pipelineGoldenPath   = "testdata/pipeline_stats_golden.json"
)

// updatePipelineGolden rewrites the golden file from the current model:
// only for a deliberate timing-model change, never to make a refactor pass.
var updatePipelineGolden = flag.Bool("update-pipeline-golden", false,
	"rewrite "+pipelineGoldenPath+" from the current timing model")

// pipelineGolden is one pinned simulation.
type pipelineGolden struct {
	Bench  string `json:"bench"`
	Label  string `json:"label"`  // Config.Label(), to make a diff readable
	Digest string `json:"digest"` // Config.Digest()
	Cycles int64  `json:"cycles"`
	Stats  string `json:"stats_sha256"` // SHA-256 of json.Marshal(Stats)
}

// pipelineGoldenConfigs lists the pinned machines: the E10 register-file
// sweep on the baseline (128 is the baseline itself), the contended, deep
// memory and clustered machines, and the contended machine with a single
// register-file write port, each with elimination off and on; then the
// oracle limit study of E13.
func pipelineGoldenConfigs() []pipeline.Config {
	var families []pipeline.Config
	for _, regs := range []int{40, 48, 56, 64, 96, 128} {
		c := pipeline.BaselineConfig()
		c.PhysRegs = regs
		families = append(families, c)
	}
	onePort := pipeline.ContendedConfig()
	onePort.RFWritePorts = 1
	families = append(families, pipeline.ContendedConfig(), onePort,
		pipeline.DeepMemoryConfig(), pipeline.ClusteredConfig())
	var cfgs []pipeline.Config
	for _, c := range families {
		cfgs = append(cfgs, c)
		c.Elim = true
		cfgs = append(cfgs, c)
	}
	oracle := pipeline.ContendedConfig()
	oracle.Elim = true
	oracle.OracleElim = true
	return append(cfgs, oracle)
}

func simulatePipelineGolden(t *testing.T) []pipelineGolden {
	t.Helper()
	w := core.NewWorkspace(pipelineGoldenBudget)
	var out []pipelineGolden
	for _, name := range core.SuiteNames() {
		for _, cfg := range pipelineGoldenConfigs() {
			st, err := w.RunMachine(name, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfg.Label(), err)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			out = append(out, pipelineGolden{
				Bench:  name,
				Label:  cfg.Label(),
				Digest: cfg.Digest(),
				Cycles: st.Cycles,
				Stats:  hex.EncodeToString(sum[:]),
			})
		}
	}
	return out
}

func TestPipelineStatsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 11 benchmarks x 21 machines")
	}
	got := simulatePipelineGolden(t)
	if *updatePipelineGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pipelineGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), pipelineGoldenPath)
		return
	}
	b, err := os.ReadFile(pipelineGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []pipelineGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	type key struct{ bench, digest string }
	byKey := make(map[key]pipelineGolden, len(want))
	for _, g := range want {
		byKey[key{g.Bench, g.Digest}] = g
	}
	if len(got) != len(want) {
		t.Errorf("%d simulations, golden file has %d", len(got), len(want))
	}
	for _, g := range got {
		w, ok := byKey[key{g.Bench, g.Digest}]
		switch {
		case !ok:
			t.Errorf("%s %s: no golden entry", g.Bench, g.Label)
		case g.Cycles != w.Cycles || g.Stats != w.Stats:
			t.Errorf("%s %s: cycles %d stats %.12s, golden cycles %d stats %.12s",
				g.Bench, g.Label, g.Cycles, g.Stats, w.Cycles, w.Stats)
		}
	}
}
