package dip

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/bpred"
	"repro/internal/deadness"
	"repro/internal/trace"
)

// Predictor is a trace-level dead-instruction predictor evaluation: one
// flavor of the design space, run over a linked, analyzed trace. Every
// flavor the experiments compare — the paper's CFI predictor, the no-CFI
// counter baseline, the oracle-path upper bound, the profile-guided
// static hint and the steering predictor — is a Spec that New turns into
// a Predictor, so experiments request evaluations declaratively instead
// of special-casing each flavor.
//
// Evaluations are deterministic pure functions of (trace, analysis,
// spec): any internal state (the table, the direction predictor) is
// constructed fresh per call.
type Predictor struct {
	spec Spec // canonical and valid
}

// Evaluate runs the evaluation over a linked, analyzed trace, predicting
// its branches itself where the flavor reads them.
func (p Predictor) Evaluate(t *trace.Trace, a *deadness.Analysis) (Result, error) {
	return p.EvaluateWith(t, a, nil)
}

// EvaluateWith is Evaluate for a caller that keeps the trace's
// prediction column under DefaultDirName (bpred.Predict with that
// predictor). shared returns it, and only the cfi and counter flavors
// under DefaultDirName call it, so the caller can build the column on
// first use; every other flavor, and every call with a nil shared,
// predicts privately. A shared column by another predictor is an error.
func (p Predictor) EvaluateWith(t *trace.Trace, a *deadness.Analysis, shared func() *bpred.Predictions) (Result, error) {
	return flavors[p.spec.Flavor](p.spec, t, a, shared)
}

// Flavor names for Spec.Flavor.
const (
	// FlavorCFI is the paper's predictor: dead-path signatures over
	// predicted future branch directions.
	FlavorCFI = "cfi"
	// FlavorCounter is the no-CFI baseline: the same table driven with
	// empty signatures (PathLen forced to zero), i.e. a per-PC confidence
	// counter.
	FlavorCounter = "counter"
	// FlavorOracle replaces predicted future directions with actual
	// outcomes — the control-flow-information upper bound.
	FlavorOracle = "oracle"
	// FlavorStaticHint is the profile-guided per-instruction hint
	// baseline (see StaticHintResult).
	FlavorStaticHint = "statichint"
	// FlavorSteer is the cluster-steering predictor: a per-PC binary
	// predictor (a bpred direction predictor reinterpreted over
	// ineffectuality outcomes) deciding which instances route to the
	// narrow degraded cluster (see steer).
	FlavorSteer = "steer"
)

// DefaultDirName is the registered name of the direction predictor used
// when Spec.Dir is empty: the pipeline's default 4K-entry gshare (see
// DefaultDir).
const DefaultDirName = "gshare-4k"

// Spec declaratively describes one predictor evaluation. It is plain
// exported data, so it digests canonically (after Canonical normalizes
// the flavor-dependent fields) and serves as an artifact-cache key: two
// specs describing the same computation share one evaluation.
type Spec struct {
	// Flavor selects the evaluation flavor (FlavorCFI & co.).
	Flavor string
	// Config is the table geometry (ignored by FlavorStaticHint).
	Config Config
	// Dir names the direction predictor supplying path signatures (see
	// bpred.NewDirByName); empty selects DefaultDirName. Ignored by
	// FlavorStaticHint.
	Dir string
	// TrainFrac and HintThreshold parameterize FlavorStaticHint: the
	// training prefix fraction and the deadness ratio at which a static
	// instruction is hinted dead.
	TrainFrac     float64
	HintThreshold float64
}

// flavors is the registry mapping Spec.Flavor to its evaluation. The
// spec passed in is canonical and valid; shared is EvaluateWith's.
var flavors = map[string]func(s Spec, t *trace.Trace, a *deadness.Analysis, shared func() *bpred.Predictions) (Result, error){
	FlavorCFI:     evalTable,
	FlavorCounter: evalTable,
	FlavorOracle:  evalTable,
	FlavorStaticHint: func(s Spec, t *trace.Trace, a *deadness.Analysis, _ func() *bpred.Predictions) (Result, error) {
		return StaticHintResult(t, a, s.TrainFrac, s.HintThreshold), nil
	},
	FlavorSteer: evalSteer,
}

// Flavors lists the registered flavor names, sorted.
func Flavors() []string {
	names := make([]string, 0, len(flavors))
	for name := range flavors {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Canonical normalizes a spec so that equal computations have equal
// digests: the default direction predictor is named explicitly, a
// counter flavor zeroes the (unused) path length, a CFI spec whose
// geometry disables path signatures *is* the counter flavor, and the
// static-hint and steer flavors zero the fields they ignore (steer has no
// table — its only state is the named direction predictor).
func (s Spec) Canonical() Spec {
	switch s.Flavor {
	case FlavorCFI, FlavorCounter, FlavorOracle:
		if s.Dir == "" {
			s.Dir = DefaultDirName
		}
		if s.Flavor == FlavorCounter {
			s.Config.PathLen = 0
		}
		if s.Flavor == FlavorCFI && !s.Config.UseCFI() {
			s.Flavor = FlavorCounter
		}
		s.TrainFrac, s.HintThreshold = 0, 0
	case FlavorStaticHint:
		s.Config, s.Dir = Config{}, ""
	case FlavorSteer:
		if s.Dir == "" {
			s.Dir = DefaultDirName
		}
		s.Config = Config{}
		s.TrainFrac, s.HintThreshold = 0, 0
	}
	return s
}

// Validate reports spec errors: an unregistered flavor, an invalid table
// geometry, an unknown direction predictor, or out-of-range hint
// parameters. Validate normalizes first, so a spec that passes here is
// buildable by New.
func (s Spec) Validate() error {
	s = s.Canonical()
	if _, ok := flavors[s.Flavor]; !ok {
		return fmt.Errorf("dip: unknown predictor flavor %q (have %v)", s.Flavor, Flavors())
	}
	if s.Flavor == FlavorStaticHint {
		if s.TrainFrac <= 0 || s.TrainFrac >= 1 {
			return fmt.Errorf("dip: static-hint training fraction %g outside (0, 1)", s.TrainFrac)
		}
		if s.HintThreshold < 0 || s.HintThreshold > 1 {
			return fmt.Errorf("dip: static-hint threshold %g outside [0, 1]", s.HintThreshold)
		}
		return nil
	}
	if s.Flavor != FlavorSteer {
		// Steer carries no table geometry; the direction predictor is its
		// whole configuration.
		if err := s.Config.Validate(); err != nil {
			return err
		}
	}
	return bpred.CheckDirName(s.Dir)
}

// Digest canonically fingerprints the evaluation the spec describes.
func (s Spec) Digest() string {
	b, err := json.Marshal(s.Canonical())
	if err != nil {
		panic(fmt.Sprintf("dip: spec not digestible: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Label is the short human-readable form used in verbose progress lines.
func (s Spec) Label() string {
	s = s.Canonical()
	switch s.Flavor {
	case FlavorStaticHint:
		return fmt.Sprintf("statichint-f%g-t%g", s.TrainFrac, s.HintThreshold)
	case FlavorSteer:
		return "steer+" + s.Dir
	case FlavorOracle:
		return s.Config.Name() + "-oracle"
	default:
		label := s.Config.Name()
		if s.Dir != DefaultDirName {
			label += "+" + s.Dir
		}
		return label
	}
}

// New builds the predictor the spec describes. An invalid spec returns
// the Validate error.
func (s Spec) New() (Predictor, error) {
	s = s.Canonical()
	if err := s.Validate(); err != nil {
		return Predictor{}, err
	}
	return Predictor{s}, nil
}

// evalTable runs the table flavors (cfi, counter, oracle). The oracle's
// signatures are actual outcomes, so it always predicts privately, as
// does a spec under another direction predictor.
func evalTable(s Spec, t *trace.Trace, a *deadness.Analysis, shared func() *bpred.Predictions) (Result, error) {
	dir, err := bpred.NewDirByName(s.Dir)
	if err != nil {
		return Result{}, err
	}
	actual := s.Flavor == FlavorOracle
	if shared == nil || actual || s.Dir != DefaultDirName {
		return evaluate(t, a, s.Config, bpred.Predict(t, dir, actual))
	}
	preds := shared()
	if err := preds.Check(t, dir.Name()); err != nil {
		return Result{}, fmt.Errorf("dip: %w", err)
	}
	return evaluate(t, a, s.Config, preds)
}
