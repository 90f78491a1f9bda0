// Package cache models the level-1 data cache used by the pipeline: a
// set-associative, write-back, write-allocate cache with true-LRU
// replacement and a flat miss penalty standing in for the rest of the
// memory hierarchy. The counters it exports (accesses, hits, misses,
// writebacks) feed experiment E8's "data cache accesses" resource metric.
package cache

import (
	"errors"
	"fmt"
)

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size.
	LineBytes int
	// Ways is the set associativity.
	Ways int
	// HitLatency and MissLatency are in cycles; a miss pays MissLatency
	// total (not in addition to HitLatency).
	HitLatency  int
	MissLatency int
}

// DefaultConfig is a 16 KB, 4-way, 32 B-line L1D with a 2-cycle hit and a
// 16-cycle miss, in the spirit of the study's early-2000s machines.
func DefaultConfig() Config {
	return Config{
		SizeBytes:   16 * 1024,
		LineBytes:   32,
		Ways:        4,
		HitLatency:  2,
		MissLatency: 16,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: LineBytes %d must be a positive power of two", c.LineBytes)
	case c.Ways < 1:
		return errors.New("cache: Ways must be >= 1")
	case c.SizeBytes < c.LineBytes*c.Ways:
		return fmt.Errorf("cache: size %d too small for %d ways of %d-byte lines",
			c.SizeBytes, c.Ways, c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible into %d-way sets of %d-byte lines",
			c.SizeBytes, c.Ways, c.LineBytes)
	case c.HitLatency < 1 || c.MissLatency < c.HitLatency:
		return fmt.Errorf("cache: bad latencies hit=%d miss=%d", c.HitLatency, c.MissLatency)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// Stats are the access counters.
type Stats struct {
	Accesses   int
	Hits       int
	Misses     int
	Writebacks int
}

// HitRate returns hits over accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
	used  uint64
}

// Cache is one cache instance. Create with New.
type Cache struct {
	cfg      Config
	sets     [][]line
	setMask  uint64
	lineBits uint
	tick     uint64

	Stats Stats
}

// New builds a cache; the configuration must be valid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	c := &Cache{
		cfg:     cfg,
		sets:    make([][]line, nsets),
		setMask: uint64(nsets - 1),
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	for 1<<c.lineBits < cfg.LineBytes {
		c.lineBits++
	}
	return c, nil
}

// Access performs a load (write=false) or store (write=true) of the given
// byte span and returns the access latency in cycles. Accesses that span
// two lines probe both and pay the worse latency.
func (c *Cache) Access(addr uint64, width int, write bool) int {
	if c.Probe(addr, width, write) {
		return c.cfg.HitLatency
	}
	return c.cfg.MissLatency
}

// Probe performs the access (updating contents and statistics) and reports
// whether every touched line hit, letting multi-level hierarchies compose
// their own latencies. An access spanning two lines hits only if both do.
func (c *Cache) Probe(addr uint64, width int, write bool) bool {
	c.Stats.Accesses++
	hit := c.touch(addr, write)
	if width > 1 {
		last := addr + uint64(width) - 1
		if last>>c.lineBits != addr>>c.lineBits {
			hit = c.touch(last, write) && hit
		}
	}
	return hit
}

func (c *Cache) touch(addr uint64, write bool) bool {
	blk := addr >> c.lineBits
	set := c.sets[blk&c.setMask]
	tag := blk >> popBits(c.setMask)
	c.tick++
	for w := range set {
		l := &set[w]
		if l.valid && l.tag == tag {
			c.Stats.Hits++
			l.used = c.tick
			if write {
				l.dirty = true
			}
			return true
		}
	}
	c.Stats.Misses++
	victim := &set[0]
	for w := range set {
		l := &set[w]
		if !l.valid {
			victim = l
			break
		}
		if l.used < victim.used {
			victim = l
		}
	}
	if victim.valid && victim.dirty {
		c.Stats.Writebacks++
	}
	*victim = line{valid: true, dirty: write, tag: tag, used: c.tick}
	return false
}

// Flush invalidates every line, counting writebacks of dirty lines.
func (c *Cache) Flush() {
	for s := range c.sets {
		for w := range c.sets[s] {
			l := &c.sets[s][w]
			if l.valid && l.dirty {
				c.Stats.Writebacks++
			}
			*l = line{}
		}
	}
}

func popBits(mask uint64) uint {
	var n uint
	for mask != 0 {
		n += uint(mask & 1)
		mask >>= 1
	}
	return n
}
