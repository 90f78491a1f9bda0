// Package pipeline is the cycle-level out-of-order core model: fetch with
// branch prediction, register renaming over a finite physical register
// file, an issue queue with limited-width select, functional units, a
// load/store queue with store-to-load forwarding, an L1 data cache, and
// in-order commit from a reorder buffer.
//
// The model is trace-driven: it consumes the committed-path dynamic trace
// the functional emulator produced, so values are always correct and
// wrong-path instructions are not simulated; control mispredictions charge
// their cost as a fetch redirect that lasts until the branch executes.
// Every contended resource the paper's mechanism saves — physical
// registers, register-file ports, issue slots, cache bandwidth — is
// modelled explicitly, which is what lets dead-instruction elimination
// translate into measurable utilization and IPC differences (experiments
// E8-E10).
package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/dip"
)

// Config describes one machine configuration.
type Config struct {
	// FetchWidth..CommitWidth are per-cycle stage bandwidths.
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	CommitWidth int

	// Window capacities.
	ROBSize int
	IQSize  int
	LSQSize int
	// PhysRegs is the physical register file size (must exceed the 32
	// architectural registers).
	PhysRegs int

	// Functional units per cycle.
	IntALUs  int
	MulDivs  int
	MemPorts int

	// Register file ports per cycle; 0 means unlimited.
	RFReadPorts  int
	RFWritePorts int

	// Latencies in cycles.
	MulLatency    int
	DivLatency    int
	BTBMissBubble int
	// DeadRecoveryPenalty is the rename stall charged when a consumer
	// exposes a mispredicted-dead value.
	DeadRecoveryPenalty int

	// Branch predictor geometry (gshare), BTB, and return-address stack.
	GshareLogEntries int
	GshareHistBits   int
	BTBLogEntries    int
	RASDepth         int

	// Cache is the L1D configuration.
	Cache cache.Config
	// L2, when non-nil, adds a second-level cache; MemLatency is then the
	// flat main-memory penalty beyond the L2 (the L1's MissLatency field
	// is ignored in that case).
	L2         *cache.Config
	MemLatency int

	// Elim enables dead-instruction elimination with the given predictor.
	Elim bool
	DIP  dip.Config
	// OracleElim replaces the predictor with the deadness oracle: every
	// actually-dead candidate is eliminated and nothing else. This is the
	// limit study of experiment E13 (no mispredictions, no recoveries).
	OracleElim bool

	// Clusters selects the execution organization: 0 or 1 is the classic
	// single cluster; 2 adds a narrow degraded cluster that instructions
	// *predicted ineffectual* (silent stores, trivial ops) are steered to
	// at rename (experiments E19-E21). The clustering fields carry
	// omitempty so every single-cluster config keeps the digest it had
	// before clustering existed — E1-E18 cache keys and labels are
	// untouched.
	Clusters int `json:",omitempty"`
	// NarrowIssueWidth and NarrowALUs size the degraded cluster: its own
	// issue bandwidth and ALU pool. Memory ports and mul/div units remain
	// shared (one data cache), and narrow-cluster instructions pay one
	// extra cycle of execution latency (cross-cluster bypass), so steering
	// an effectual instruction there is a real penalty.
	NarrowIssueWidth int `json:",omitempty"`
	NarrowALUs       int `json:",omitempty"`
	// SteerDir names the bpred direction predictor reinterpreted as the
	// per-PC ineffectuality steering predictor ("taken" = ineffectual).
	// It is the hardware twin of the trace-level dip.FlavorSteer
	// evaluation, with one deliberate difference: empty selects the
	// history-free "bimodal-4k", not dip.DefaultDirName's gshare. The
	// pipeline predicts at rename but trains at commit, and the candidates
	// in flight between those points shift a global history register, so a
	// history-indexed predictor trains entries other than the ones it
	// predicted from and never converges; a PC-indexed table is immune.
	SteerDir string `json:",omitempty"`
}

// gshare builds the front end's direction predictor.
func (c Config) gshare() *bpred.Gshare {
	return bpred.NewGshare(c.GshareLogEntries, c.GshareHistBits)
}

// Clustered reports whether the configuration runs the two-cluster
// steered organization.
func (c Config) Clustered() bool { return c.Clusters == 2 }

// SteerDirDefault is the steering predictor an empty SteerDir selects
// (see the SteerDir field doc for why it is not dip.DefaultDirName).
const SteerDirDefault = "bimodal-4k"

// steerDirName resolves the steering predictor name.
func (c Config) steerDirName() string {
	if c.SteerDir == "" {
		return SteerDirDefault
	}
	return c.SteerDir
}

// ClusteredConfig is the two-cluster machine of experiments E19-E21: the
// contended machine reorganized as a full-width primary cluster plus a
// single-issue narrow cluster fed by the ineffectuality steering
// predictor. Total issue bandwidth matches ContendedConfig plus one
// narrow slot, so the interesting comparison is where committed work
// lands, not raw width.
func ClusteredConfig() Config {
	c := ContendedConfig()
	c.Clusters = 2
	c.NarrowIssueWidth = 1
	c.NarrowALUs = 1
	return c
}

// BaselineConfig is a generously provisioned 4-wide machine in the spirit
// of the paper's baseline: resources are large enough that elimination
// mostly saves utilization rather than time.
func BaselineConfig() Config {
	return Config{
		FetchWidth:  4,
		RenameWidth: 4,
		IssueWidth:  4,
		CommitWidth: 4,

		ROBSize:  128,
		IQSize:   64,
		LSQSize:  64,
		PhysRegs: 128,

		IntALUs:  4,
		MulDivs:  2,
		MemPorts: 2,

		RFReadPorts:  0,
		RFWritePorts: 0,

		MulLatency:          3,
		DivLatency:          12,
		BTBMissBubble:       2,
		DeadRecoveryPenalty: 8,

		GshareLogEntries: 12,
		GshareHistBits:   10,
		BTBLogEntries:    9,
		RASDepth:         16,

		Cache: cache.DefaultConfig(),
		DIP:   dip.DefaultConfig(),
	}
}

// DeepMemoryConfig extends the contended machine with an L2 and a slower
// main memory (experiment E15): misses get pricier, so eliminating dead
// loads buys more.
func DeepMemoryConfig() Config {
	c := ContendedConfig()
	l2 := cache.Config{
		SizeBytes:   256 * 1024,
		LineBytes:   64,
		Ways:        8,
		HitLatency:  10,
		MissLatency: 90, // unused in a hierarchy; kept valid
	}
	c.L2 = &l2
	c.MemLatency = 80
	return c
}

// ContendedConfig is the resource-constrained machine of experiment E9:
// the same width with a small physical register file, issue queue, and
// memory/register-file bandwidth, so freeing resources earlier shows up as
// performance.
func ContendedConfig() Config {
	c := BaselineConfig()
	c.PhysRegs = 52
	c.ROBSize = 96
	c.IQSize = 20
	c.LSQSize = 24
	c.IntALUs = 3
	c.MemPorts = 2
	c.RFReadPorts = 4
	c.RFWritePorts = 2
	return c
}

// Digest returns a canonical fingerprint of the configuration: two
// configs describing the same machine (including a dereferenced L2 and
// the predictor geometry) produce equal digests. It is THE memoization /
// artifact-cache key for simulation results, and the digest every
// human-facing label derives from (see Label), so cache keys, fault
// attribution, and verbose logs can never drift apart.
func (c Config) Digest() string {
	// Every field is a plain exported value (the L2 pointer marshals by
	// content, nil as null), so JSON is a stable canonical encoding. The
	// predictor geometry contributes through its own canonical digest
	// rather than raw re-serialization, so the two digest schemes compose
	// and cannot diverge.
	shadow := struct {
		Machine Config
		DIP     string
	}{Machine: c, DIP: c.DIP.Digest()}
	shadow.Machine.DIP = dip.Config{}
	b, err := json.Marshal(shadow)
	if err != nil {
		panic(fmt.Sprintf("pipeline: config not digestible: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Label is the short human-readable form of the configuration used in
// verbose progress lines and error attribution: the elimination mode, the
// register-file size (the main contention knob the experiments sweep),
// and a digest prefix tying the label to the canonical cache key.
func (c Config) Label() string {
	mode := "base"
	switch {
	case c.OracleElim:
		mode = "oracle"
	case c.Elim:
		mode = "elim"
	}
	if c.Clustered() {
		mode += "+2c"
	}
	return fmt.Sprintf("%s r%d [%s]", mode, c.PhysRegs, c.Digest()[:8])
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth < 1 || c.RenameWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1:
		return errors.New("pipeline: stage widths must be >= 1")
	case c.ROBSize < 4:
		return fmt.Errorf("pipeline: ROB size %d too small", c.ROBSize)
	case c.IQSize < 1 || c.LSQSize < 1:
		return errors.New("pipeline: IQ/LSQ must hold at least one entry")
	case c.PhysRegs < 34:
		return fmt.Errorf("pipeline: %d physical registers cannot back 32 architectural + rename",
			c.PhysRegs)
	case c.IntALUs < 1 || c.MulDivs < 1 || c.MemPorts < 1:
		return errors.New("pipeline: need at least one of each functional unit")
	case c.MulLatency < 1 || c.DivLatency < 1:
		return errors.New("pipeline: latencies must be >= 1")
	case c.DeadRecoveryPenalty < 1:
		return errors.New("pipeline: DeadRecoveryPenalty must be >= 1")
	case c.GshareLogEntries < 1 || c.BTBLogEntries < 1 || c.RASDepth < 1:
		return errors.New("pipeline: predictor geometry must be positive")
	case c.Clusters < 0 || c.Clusters > 2:
		return fmt.Errorf("pipeline: %d clusters unsupported (0/1 = single, 2 = steered)", c.Clusters)
	case c.Clustered() && (c.NarrowIssueWidth < 1 || c.NarrowALUs < 1):
		return errors.New("pipeline: clustered config needs NarrowIssueWidth and NarrowALUs >= 1")
	}
	if c.Clustered() {
		if _, err := bpred.NewDirByName(c.steerDirName()); err != nil {
			return err
		}
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	if c.L2 != nil {
		if _, err := cache.NewHierarchy(c.Cache, *c.L2, c.MemLatency); err != nil {
			return err
		}
	}
	if c.Elim && !c.OracleElim {
		if err := c.DIP.Validate(); err != nil {
			return err
		}
	}
	return nil
}
