package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
)

// goldenPath is where the expected digests live, relative to the
// repository root the benchmark runs from.
const goldenPath = "benchmark/golden.json"

// golden holds the expected outputs the workloads are checked against:
// the SHA-256 of each experiment's Experiment.Render() at the suite
// budget and of each benchmark's profile Summary (as JSON) at the profile
// budget. A run whose scale differs from the golden budgets is refused.
type golden struct {
	SuiteBudget   int               `json:"suite_budget"`
	ProfileBudget int               `json:"profile_budget"`
	Experiments   map[string]string `json:"experiments"`
	Profiles      map[string]string `json:"profiles"`
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden digests: %w", err)
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

func (g *golden) save(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// computeGolden derives the expected digests in-process, for the
// experiments and budgets of the given scale.
func computeGolden(s scale) (*golden, error) {
	g := &golden{SuiteBudget: s.SuiteBudget, ProfileBudget: s.ProfileBudget,
		Experiments: map[string]string{}, Profiles: map[string]string{}}
	exps, err := core.NewWorkspace(s.SuiteBudget).RunExperiments(context.Background(), s.Experiments)
	if err != nil {
		return nil, err
	}
	for _, e := range exps {
		g.Experiments[e.ID] = digest([]byte(e.Render()))
	}
	w := core.NewWorkspace(s.ProfileBudget)
	for _, name := range core.SuiteNames() {
		p, err := w.ProfileOf(name)
		if err != nil {
			return nil, err
		}
		if g.Profiles[name], err = jsonDigest(p.Summary); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// check compares digests against the expected set and returns one problem
// per output that mismatches or has no expected digest.
func check(what string, want, got map[string]string) []string {
	var problems []string
	for k, d := range got {
		switch w, ok := want[k]; {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s %s: no golden digest", what, k))
		case w != d:
			problems = append(problems, fmt.Sprintf("%s %s: digest %.12s, golden %.12s", what, k, d, w))
		}
	}
	return problems
}
