package trace

// WriterMap tracks the most recent dynamic writer (a sequence number) of
// every memory byte, using page-grained storage so the per-byte bookkeeping
// of the linker and the deadness oracle stays fast on multi-million-
// instruction traces.
//
// Within a page the tracking is word-granular: each aligned 8-byte word
// records one covering writer plus a byte mask selecting which of its bytes
// that writer owns. The common case — an aligned doubleword store later
// read by an aligned load — touches one slot instead of eight. Bytes
// claimed by partial or unaligned stores spill into a per-byte overflow
// array allocated on first use.
type WriterMap struct {
	pages map[uint64]*writerPage
	// One-entry lookup cache: traces are strongly page-local, so most
	// consecutive memory operations hit the same page and skip the map.
	lastKey uint64
	lastPg  *writerPage
}

const wpageBits = 12
const wpageSize = 1 << wpageBits // bytes per page
const wpageWords = wpageSize / 8 // aligned 8-byte words per page

// fullMask marks every byte of a word as covered by the word writer.
const fullMask = 0xff

type writerPage struct {
	// word[w] wrote the bytes of word w whose bit in mask[w] is set; a
	// byte with a clear bit reads from the overflow array instead. A
	// fresh page has every mask full and every word writer NoProducer.
	word [wpageWords]int32
	mask [wpageWords]uint8
	// bytes holds per-byte writers for partially-claimed words; nil until
	// the first unaligned or sub-word store touches the page.
	bytes *[wpageSize]int32
}

// NewWriterMap creates an empty map; every byte reads NoProducer.
func NewWriterMap() *WriterMap {
	return &WriterMap{pages: make(map[uint64]*writerPage, 64)}
}

// lookup returns the page for key, or nil without creating it.
func (w *WriterMap) lookup(key uint64) *writerPage {
	if w.lastPg != nil && w.lastKey == key {
		return w.lastPg
	}
	pg := w.pages[key]
	if pg != nil {
		w.lastKey, w.lastPg = key, pg
	}
	return pg
}

func (w *WriterMap) page(key uint64) *writerPage {
	if pg := w.lookup(key); pg != nil {
		return pg
	}
	pg := new(writerPage) // empty: every byte reads NoProducer
	for i := range pg.word {
		pg.word[i] = NoProducer
	}
	for i := range pg.mask {
		pg.mask[i] = fullMask
	}
	w.pages[key] = pg
	w.lastKey, w.lastPg = key, pg
	return pg
}

// Get returns the last writer of addr, or NoProducer.
func (w *WriterMap) Get(addr uint64) int32 {
	pg := w.lookup(addr >> wpageBits)
	if pg == nil {
		return NoProducer
	}
	off := addr & (wpageSize - 1)
	if pg.mask[off>>3]&(1<<(off&7)) != 0 {
		return pg.word[off>>3]
	}
	if pg.bytes == nil {
		return NoProducer
	}
	return pg.bytes[off]
}

// setByte claims one byte for seq, demoting it out of the word writer's
// coverage into the overflow array.
func (p *writerPage) setByte(off uint64, seq int32) {
	if p.bytes == nil {
		p.bytes = new([wpageSize]int32)
	}
	p.bytes[off] = seq
	p.mask[off>>3] &^= 1 << (off & 7)
}

// getByte returns the writer of one byte.
func (p *writerPage) getByte(off uint64) int32 {
	if p.mask[off>>3]&(1<<(off&7)) != 0 {
		return p.word[off>>3]
	}
	if p.bytes == nil {
		return NoProducer
	}
	return p.bytes[off]
}

// aligned reports whether [addr, addr+width) is exactly one aligned
// 8-byte word.
func aligned(addr uint64, width int) bool {
	return width == 8 && addr&7 == 0
}

// Claim records seq as the writer of every byte in [addr, addr+width)
// without collecting the previous writers (the linker's store path).
func (w *WriterMap) Claim(addr uint64, width int, seq int32) {
	if aligned(addr, width) {
		pg := w.page(addr >> wpageBits)
		wi := (addr & (wpageSize - 1)) >> 3
		pg.word[wi] = seq
		pg.mask[wi] = fullMask
		return
	}
	for width > 0 {
		pg := w.page(addr >> wpageBits)
		off := addr & (wpageSize - 1)
		n := uint64(width)
		if off+n > wpageSize {
			n = wpageSize - off
		}
		for b := uint64(0); b < n; b++ {
			pg.setByte(off+b, seq)
		}
		addr += n
		width -= int(n)
	}
}

// Overwrite records seq as the writer of [addr, addr+width) and appends
// the previous writers of the span, in byte order and skipping
// NoProducer, to prev (the oracle's store path: each returned writer is a
// store whose bytes this one overwrote). The full-word fast path reports
// a single covering writer once instead of eight times; callers must not
// rely on per-byte multiplicity, only on the set of writers.
func (w *WriterMap) Overwrite(addr uint64, width int, seq int32, prev []int32) []int32 {
	if aligned(addr, width) {
		pg := w.page(addr >> wpageBits)
		wi := (addr & (wpageSize - 1)) >> 3
		if pg.mask[wi] == fullMask {
			if p := pg.word[wi]; p != NoProducer {
				prev = append(prev, p)
			}
		} else {
			for b := uint64(0); b < 8; b++ {
				if p := pg.getByte(wi<<3 + b); p != NoProducer {
					prev = append(prev, p)
				}
			}
		}
		pg.word[wi] = seq
		pg.mask[wi] = fullMask
		return prev
	}
	for width > 0 {
		pg := w.page(addr >> wpageBits)
		off := addr & (wpageSize - 1)
		n := uint64(width)
		if off+n > wpageSize {
			n = wpageSize - off
		}
		for b := uint64(0); b < n; b++ {
			if p := pg.getByte(off + b); p != NoProducer {
				prev = append(prev, p)
			}
			pg.setByte(off+b, seq)
		}
		addr += n
		width -= int(n)
	}
	return prev
}

// LoadProducers fills r.MemSrcs with the distinct writers of the load's
// byte span, in byte order (the linker's load path).
func (w *WriterMap) LoadProducers(r *Record) {
	out := w.AppendLoadProducers(r.Addr, int(r.Width), r.MemSrcs[:0])
	r.NumMemSrcs = uint8(len(out))
}

// AppendLoadProducers appends the distinct writers of [addr, addr+width)
// to dst — in byte order, skipping NoProducer, capped at MaxMemProducers;
// exactly LoadProducers' semantics, but into a caller-provided slice (the
// columnar linker's flat per-chunk producer pool).
func (w *WriterMap) AppendLoadProducers(addr uint64, width int, dst []int32) []int32 {
	// Fast path: an aligned load of a fully word-covered span has exactly
	// one candidate producer — no dedup state needed.
	if aligned(addr, width) {
		pg := w.lookup(addr >> wpageBits)
		if pg == nil {
			return dst
		}
		wi := (addr & (wpageSize - 1)) >> 3
		if pg.mask[wi] == fullMask {
			if p := pg.word[wi]; p != NoProducer {
				dst = append(dst, p)
			}
			return dst
		}
	}
	var seen [MaxMemProducers]int32
	n := 0
	emit := func(p int32) {
		if p == NoProducer {
			return
		}
		for k := 0; k < n; k++ {
			if seen[k] == p {
				return
			}
		}
		if n < MaxMemProducers {
			seen[n] = p
			n++
		}
	}
	if aligned(addr, width) {
		if pg := w.lookup(addr >> wpageBits); pg != nil {
			wi := (addr & (wpageSize - 1)) >> 3
			for b := uint64(0); b < 8; b++ {
				emit(pg.getByte(wi<<3 + b))
			}
		}
		return append(dst, seen[:n]...)
	}
	for width > 0 {
		off := addr & (wpageSize - 1)
		run := uint64(width)
		if off+run > wpageSize {
			run = wpageSize - off
		}
		if pg := w.lookup(addr >> wpageBits); pg != nil {
			for b := uint64(0); b < run; b++ {
				emit(pg.getByte(off + b))
			}
		}
		addr += run
		width -= int(run)
	}
	return append(dst, seen[:n]...)
}
