// Package dip implements the paper's central contribution: the dead-
// instruction predictor. The predictor is a tagged, set-associative table
// indexed by the PC of a result-producing instruction. Each entry holds a
// small number of *dead-path signatures* — patterns of predicted directions
// for the next few conditional branches — with a saturating confidence
// counter per signature. An instance is predicted dead only when the
// current future-control-flow signature (from the branch predictor's
// lookahead, see bpred.Lookahead) matches a signature whose counter has
// reached the confidence threshold.
//
// Keying on future control flow is what lets the predictor distinguish
// useless from useful instances of the same static instruction: a value
// computed before a branch is typically dead exactly when the upcoming
// branches take the path that skips its consumer.
//
// Setting Config.PathLen to zero degenerates the predictor into the no-CFI
// baseline — a plain per-PC confidence counter — used by ablation E6.
package dip

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Config describes a predictor geometry. The zero value is invalid; start
// from DefaultConfig.
type Config struct {
	// LogSets is log2 of the number of sets.
	LogSets int
	// Ways is the set associativity.
	Ways int
	// TagBits is the partial tag width.
	TagBits int
	// PathLen is the number of future branch directions in a signature
	// (0..16). Zero disables control-flow information entirely.
	PathLen int
	// SigSlots is the number of dead-path signatures per entry.
	SigSlots int
	// CounterBits is the confidence counter width (1..8).
	CounterBits int
	// Threshold is the counter value at or above which the instance is
	// predicted dead.
	Threshold int
}

// DefaultConfig is the paper-point configuration: a 512-entry, 4-way table
// with 2-branch path signatures, four signature slots per entry (one per
// distinct dead path a static instruction commonly exhibits), and 2-bit
// confidence — comfortably below the paper's 5 KB state budget (~2 KB).
//
// Two future branches is the sweet spot measured by cmd/predsweep: the
// next branch usually decides whether a value's consumer executes, while
// longer signatures fragment (a static instruction's dead path splits into
// many rarely-repeating patterns) and are corrupted by any one branch
// misprediction among the lookahead, costing coverage with no accuracy
// gain.
func DefaultConfig() Config {
	return Config{
		LogSets:     7,
		Ways:        4,
		TagBits:     8,
		PathLen:     2,
		SigSlots:    4,
		CounterBits: 2,
		Threshold:   2,
	}
}

// ConfigError reports an invalid predictor geometry. It is the typed
// error returned by Config.Validate and New, so callers wiring
// user-supplied geometry can distinguish a bad configuration from other
// failures with errors.As.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string { return fmt.Sprintf("dip: %s %s", e.Field, e.Reason) }

// maxEntries caps a table's entry count, (1<<LogSets)*Ways. Geometry can
// arrive from outside the program (the daemon's predeval endpoint), and
// New allocates every entry up front; the largest table any experiment
// uses has 2,048 entries.
const maxEntries = 1 << 20

// Validate reports configuration errors (as a *ConfigError).
func (c Config) Validate() error {
	switch {
	case c.LogSets < 0 || c.LogSets > 20:
		return &ConfigError{"LogSets", fmt.Sprintf("%d out of range", c.LogSets)}
	case c.Ways < 1 || c.Ways > 64:
		return &ConfigError{"Ways", fmt.Sprintf("%d out of range", c.Ways)}
	case c.Ways<<c.LogSets > maxEntries:
		return &ConfigError{"Ways", fmt.Sprintf("%d with %d sets exceeds %d entries", c.Ways, 1<<c.LogSets, maxEntries)}
	case c.TagBits < 1 || c.TagBits > 30:
		return &ConfigError{"TagBits", fmt.Sprintf("%d out of range", c.TagBits)}
	case c.PathLen < 0 || c.PathLen > 16:
		return &ConfigError{"PathLen", fmt.Sprintf("%d out of range", c.PathLen)}
	case c.SigSlots < 1 || c.SigSlots > 64:
		return &ConfigError{"SigSlots", fmt.Sprintf("%d out of range", c.SigSlots)}
	case c.CounterBits < 1 || c.CounterBits > 8:
		return &ConfigError{"CounterBits", fmt.Sprintf("%d out of range", c.CounterBits)}
	case c.Threshold < 1 || c.Threshold > 1<<c.CounterBits-1:
		return &ConfigError{"Threshold", fmt.Sprintf("%d out of range for %d-bit counters",
			c.Threshold, c.CounterBits)}
	}
	return nil
}

// UseCFI reports whether the configuration uses future control flow.
func (c Config) UseCFI() bool { return c.PathLen > 0 }

// StateBits is the hardware budget: per entry, a valid bit, the tag, an
// LRU stamp (log2(Ways) bits), and SigSlots slots of (signature valid bit +
// PathLen signature + counter).
func (c Config) StateBits() int {
	perSlot := 1 + c.PathLen + c.CounterBits
	perEntry := 1 + c.TagBits + logCeil(c.Ways) + c.SigSlots*perSlot
	return (1 << c.LogSets) * c.Ways * perEntry
}

// StateKB is StateBits in kilobytes.
func (c Config) StateKB() float64 { return float64(c.StateBits()) / 8192 }

// Name identifies the configuration for reports.
func (c Config) Name() string {
	kind := "cfi"
	if !c.UseCFI() {
		kind = "counter"
	}
	return fmt.Sprintf("dip-%s-%de-%dw-p%d-s%d-t%d",
		kind, (1<<c.LogSets)*c.Ways, c.Ways, c.PathLen, c.SigSlots, c.Threshold)
}

// Digest returns a canonical fingerprint of the geometry: two configs
// describing the same predictor produce equal digests. It composes into
// pipeline.Config.Digest and the experiment workspace's artifact keys.
func (c Config) Digest() string {
	// Every field is a plain exported int, so JSON is a stable canonical
	// encoding (the same convention as pipeline.Config.Digest).
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("dip: config not digestible: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// SweepConfigs returns the state-budget design points of experiment E7:
// the default geometry scaled from 64 to 2048 entries (~0.4 to 13.8 KB).
func SweepConfigs() []Config {
	var out []Config
	for logSets := 4; logSets <= 9; logSets++ {
		cfg := DefaultConfig()
		cfg.LogSets = logSets
		out = append(out, cfg)
	}
	return out
}

func logCeil(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

type slot struct {
	valid bool
	sig   uint16
	ctr   uint8
}

type entry struct {
	valid bool
	tag   uint32
	used  uint64 // LRU stamp
	slots []slot
}

// Table is the hardware dead-instruction predictor structure: the tagged
// set-associative table of dead-path signatures. Create with New. The
// trace-level evaluation flavors that drive it (and its baselines) live
// behind the Predictor interface.
type Table struct {
	cfg     Config
	sets    [][]entry
	setMask uint32
	sigMask uint16
	ctrMax  uint8
	tick    uint64

	// Allocations counts entry fills, Evictions counts valid entries
	// replaced; both are reported by the design-space sweep.
	Allocations int
	Evictions   int
}

// New creates a predictor. An invalid configuration returns a typed
// *ConfigError instead of panicking: geometry is routinely user input
// (sweep flags, experiment configs), so the caller must be able to
// handle it.
func New(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := 1 << cfg.LogSets
	p := &Table{
		cfg:     cfg,
		sets:    make([][]entry, nsets),
		setMask: uint32(nsets - 1),
		sigMask: uint16(1<<cfg.PathLen - 1),
		ctrMax:  uint8(1<<cfg.CounterBits - 1),
	}
	for i := range p.sets {
		ways := make([]entry, cfg.Ways)
		for w := range ways {
			ways[w].slots = make([]slot, cfg.SigSlots)
		}
		p.sets[i] = ways
	}
	return p, nil
}

func (p *Table) index(pc int) (set uint32, tag uint32) {
	set = uint32(pc) & p.setMask
	tag = (uint32(pc) >> p.cfg.LogSets) & (1<<p.cfg.TagBits - 1)
	return
}

func (p *Table) find(pc int) *entry {
	set, tag := p.index(pc)
	for w := range p.sets[set] {
		e := &p.sets[set][w]
		if e.valid && e.tag == tag {
			return e
		}
	}
	return nil
}

// Predict returns true when the instruction at pc, on the future path
// described by sig, is predicted dead. Predict does not modify predictor
// state except the LRU stamp of a hit entry.
func (p *Table) Predict(pc int, sig uint16) bool {
	e := p.find(pc)
	if e == nil {
		return false
	}
	p.tick++
	e.used = p.tick
	sig &= p.sigMask
	for i := range e.slots {
		s := &e.slots[i]
		if s.valid && s.sig == sig {
			return int(s.ctr) >= p.cfg.Threshold
		}
	}
	return false
}

// Update trains the predictor with an instance's resolved outcome: the
// instruction at pc, whose lookahead signature at prediction time was sig,
// turned out dead or not.
//
// Entries are allocated lazily, on the first dead outcome for a PC, so
// always-live instructions consume no table space. Within an entry, a dead
// outcome reinforces (or allocates) the matching signature slot; a live
// outcome decays the matching slot if present and is otherwise ignored.
func (p *Table) Update(pc int, sig uint16, dead bool) {
	sig &= p.sigMask
	e := p.find(pc)
	if e == nil {
		if !dead {
			return
		}
		e = p.allocate(pc)
	}
	p.tick++
	e.used = p.tick

	for i := range e.slots {
		s := &e.slots[i]
		if s.valid && s.sig == sig {
			if dead {
				if s.ctr < p.ctrMax {
					s.ctr++
				}
			} else if s.ctr > 0 {
				s.ctr--
			}
			return
		}
	}
	if !dead {
		return
	}
	// Steal the weakest slot (an invalid one if any) for the new dead path.
	victim := &e.slots[0]
	for i := 1; i < len(e.slots) && victim.valid; i++ {
		s := &e.slots[i]
		if !s.valid || s.ctr < victim.ctr {
			victim = s
		}
	}
	*victim = slot{valid: true, sig: sig, ctr: 1}
}

func (p *Table) allocate(pc int) *entry {
	set, tag := p.index(pc)
	ways := p.sets[set]
	victim := &ways[0]
	for w := range ways {
		e := &ways[w]
		if !e.valid {
			victim = e
			break
		}
		if e.used < victim.used {
			victim = e
		}
	}
	if victim.valid {
		p.Evictions++
	}
	p.Allocations++
	victim.valid = true
	victim.tag = tag
	for i := range victim.slots {
		victim.slots[i] = slot{}
	}
	return victim
}

// Reset clears all predictor state but keeps the configuration.
func (p *Table) Reset() {
	for s := range p.sets {
		for w := range p.sets[s] {
			e := &p.sets[s][w]
			e.valid = false
			e.used = 0
			for i := range e.slots {
				e.slots[i] = slot{}
			}
		}
	}
	p.tick = 0
	p.Allocations = 0
	p.Evictions = 0
}
