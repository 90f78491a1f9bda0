package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/deadness"
	"repro/internal/dip"
	"repro/internal/isa"
	"repro/internal/trace"
)

// memSystem is the data-memory access path (a cache or hierarchy).
type memSystem interface {
	Access(addr uint64, width int, write bool) int
}

type uopState uint8

const (
	sWaiting uopState = iota
	sIssued
	sDone
	sEliminated
)

// Functional-unit classes a uop issues to.
const (
	unitALU uint8 = iota
	unitMulDiv
	unitMem
)

type uop struct {
	seq       int
	state     uopState
	doneCycle int64
	allocated bool // holds a physical register, freed at commit
	hasDest   bool
	isLoad    bool
	isStore   bool
	// cluster is the execution cluster (always 0 on single-cluster
	// machines; 1 is the narrow degraded cluster of a steered machine).
	cluster uint8
	// unit and nsrc are decoded once at rename for issue: the
	// functional-unit class and the register-file read ports used.
	unit uint8
	nsrc uint8
	// lat is the execution latency of a non-load (a load's depends on the
	// cache and the LSQ at issue).
	lat int32
	// pc caches the record's static PC so commit-time predictor training
	// does not re-derive a trace Ref on the commit hot path.
	pc int32
	// pending counts the producers (register sources and in-flight
	// producer stores) this waiting uop still needs written back;
	// consumers heads the list of waiting uops linked onto this one, an
	// index into Machine.edges (0 = none).
	pending   int32
	consumers int32
}

// edge links a waiting consumer onto a producer's consumer list.
type edge struct {
	consumer int32
	next     int32
}

// pendingUpd is a dead-predictor training event waiting for its resolution
// instruction to commit.
type pendingUpd struct {
	pc   int32
	sig  uint16
	dead bool
}

// Machine is one pipeline simulation, built and driven by RunWith.
type Machine struct {
	cfg Config
	tr  *trace.Trace
	n   int // trace length
	an  *deadness.Analysis

	preds *bpred.Predictions
	btb   *bpred.BTB
	ras   *bpred.RAS
	dc    *cache.Cache // L1 (statistics source)
	mem   memSystem    // access path: the L1 alone or an L1+L2 hierarchy
	l2    *cache.Cache
	pred  *dip.Table
	// steer is the ineffectuality steering predictor of a two-cluster
	// machine ("taken" = ineffectual); nil on single-cluster configs.
	steer bpred.DirPredictor

	// Reorder buffer as a ring keyed by sequence number. Slots are values
	// in a fixed arena indexed seq%ROBSize, so renaming an instruction
	// reuses its slot instead of allocating a uop.
	rob     []uop
	headSeq int // oldest in-flight sequence
	tailSeq int // next sequence to rename
	count   int

	// Event-driven scheduler. Waiting uops sit in the issue queue, counted
	// per cluster by iqCount; the ones whose producers have all written
	// back are on ready, and the issued ones still executing are on
	// inflight. Both lists are kept in sequence order, so issue select
	// and write-port arbitration stay oldest-first. A waiting uop with
	// producers in flight hangs off each producer's consumer list in the
	// edges arena (edges[0] is the empty-list sentinel; freed edges chain
	// from edgeFree), and writeback moves it to ready when the last of
	// them completes.
	iqCount  [2]int
	ready    []int32
	inflight []int32
	edges    []edge
	edgeFree int32
	lsqCount int

	freeRegs int
	// Architectural rename state: poisoned marks registers whose current
	// mapping belongs to an eliminated (not yet resurrected) producer.
	poisoned [isa.NumRegs]bool
	// elimStore[seq] marks eliminated stores whose bytes were never
	// re-read; nil unless elimination is enabled.
	elimStore []bool

	// Fetch queue: a fixed ring of sequence numbers waiting for rename.
	fq         []int
	fqHead     int
	fqLen      int
	fetchSeq   int   // next sequence to fetch
	fetchStall int64 // bubble cycles remaining
	redirect   int   // seq of unresolved mispredicted branch; -1 none

	renameStallUntil int64

	// Dead-predictor training events bucketed by resolution sequence: a
	// seq-indexed intrusive list (head/tail per resolve point, next links
	// through the event arena). Only allocated when a predictor trains.
	pendHead []int32
	pendTail []int32
	pendBuf  []pendingUpd
	pendNext []int32
	pendFree int32 // head of the free list threaded through pendNext

	now   int64
	stats Stats
}

// Run simulates a linked, analyzed trace to completion and returns the
// statistics. It predicts the trace's branches itself; RunWith reads a
// prediction column the caller keeps.
func Run(t *trace.Trace, a *deadness.Analysis, cfg Config) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	return RunWith(t, a, cfg, bpred.Predict(t, cfg.gshare(), false))
}

// RunWith is Run over the trace's prediction column, which must hold the
// predicted directions of the machine's gshare (bpred.Predict with
// cfg's geometry): fetch reads each branch's direction from it and rename
// each path signature, so one column serves every machine of the same
// front end.
func RunWith(t *trace.Trace, a *deadness.Analysis, cfg Config, preds *bpred.Predictions) (Stats, error) {
	m, err := newMachine(t, a, cfg, preds)
	if err != nil {
		return Stats{}, err
	}
	return m.simulate()
}

// newMachine prepares a machine over a linked, analyzed trace.
func newMachine(t *trace.Trace, a *deadness.Analysis, cfg Config, preds *bpred.Predictions) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !t.Linked {
		return nil, fmt.Errorf("pipeline: trace must be linked")
	}
	if len(a.Facts) != t.Len() {
		return nil, fmt.Errorf("pipeline: analysis covers %d records, trace has %d",
			len(a.Facts), t.Len())
	}
	if err := preds.Check(t, cfg.gshare().Name()); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	dc, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	var mem memSystem = dc
	var l2 *cache.Cache
	if cfg.L2 != nil {
		h, err := cache.NewHierarchy(cfg.Cache, *cfg.L2, cfg.MemLatency)
		if err != nil {
			return nil, err
		}
		dc, l2, mem = h.L1, h.L2, h
	}
	m := &Machine{
		cfg:      cfg,
		tr:       t,
		n:        t.Len(),
		an:       a,
		preds:    preds,
		btb:      bpred.NewBTB(cfg.BTBLogEntries, 12),
		ras:      bpred.NewRAS(cfg.RASDepth),
		dc:       dc,
		mem:      mem,
		l2:       l2,
		rob:      make([]uop, ringSize(cfg.ROBSize)),
		ready:    make([]int32, 0, cfg.IQSize),
		inflight: make([]int32, 0, cfg.ROBSize),
		edges:    make([]edge, 1, 2*cfg.IQSize+1),
		fq:       make([]int, 4*cfg.FetchWidth),
		freeRegs: cfg.PhysRegs - isa.NumRegs,
		redirect: -1,
	}
	if cfg.Elim {
		m.elimStore = make([]bool, t.Len())
	}
	if cfg.Elim && !cfg.OracleElim {
		var err error
		if m.pred, err = dip.New(cfg.DIP); err != nil {
			return nil, err
		}
		m.pendHead = make([]int32, t.Len())
		for i := range m.pendHead {
			m.pendHead[i] = -1
		}
		m.pendTail = make([]int32, t.Len())
		m.pendFree = -1
	}
	if cfg.Clustered() {
		var err error
		if m.steer, err = bpred.NewDirByName(cfg.steerDirName()); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// simulate drives the machine until every trace record has committed.
func (m *Machine) simulate() (Stats, error) {
	n := m.n
	maxCycles := int64(200)*int64(n) + 10_000
	for m.headSeq < n || m.count > 0 {
		m.commit()
		m.writeback()
		m.issue()
		m.rename()
		m.fetch()
		m.now++
		if m.now > maxCycles {
			return m.stats, fmt.Errorf("pipeline: no forward progress after %d cycles (head=%d)",
				m.now, m.headSeq)
		}
	}
	m.stats.Cycles = m.now
	m.stats.Cache = m.dc.Stats
	if m.l2 != nil {
		m.stats.L2 = m.l2.Stats
	}
	m.stats.BranchMispredicts = int64(m.preds.Mispredicts)
	return m.stats, nil
}

// ringSize rounds the ROB capacity up to a power of two so the ring
// index in at is a mask instead of a modulo; occupancy is still gated by
// the configured size (see rename), so the extra slots stay unused.
func ringSize(n int) int {
	r := 1
	for r < n {
		r <<= 1
	}
	return r
}

func (m *Machine) at(seq int) *uop { return &m.rob[seq&(len(m.rob)-1)] }

// insertSeq inserts s into the sequence-ordered list q. New entries are
// usually among the youngest, so the search runs from the tail.
func insertSeq(q []int32, s int32) []int32 {
	i := len(q)
	for i > 0 && q[i-1] > s {
		i--
	}
	q = append(q, 0)
	copy(q[i+1:], q[i:])
	q[i] = s
	return q
}

// ---------------------------------------------------------------- commit

func (m *Machine) commit() {
	for k := 0; k < m.cfg.CommitWidth && m.count > 0; k++ {
		u := m.at(m.headSeq)
		if u.state != sDone && u.state != sEliminated {
			return
		}
		if u.state == sEliminated {
			m.stats.Eliminated++
		} else {
			if u.isStore {
				r := m.tr.Ref(u.seq)
				m.mem.Access(r.Addr(), int(r.Width()), true)
			}
			if u.isLoad || u.isStore {
				m.lsqCount--
			}
		}
		if u.allocated {
			// Committing a register writer retires the previous mapping
			// of its architectural register to the free list.
			m.freeRegs++
			m.stats.PhysFrees++
		}
		if m.steer != nil {
			m.stats.ClusterCommitted[u.cluster]++
			if m.an.Facts[u.seq].Candidate() {
				// The steering predictor trains at commit with the actual
				// ineffectuality outcome, mirroring dip.FlavorSteer.
				m.steer.Update(int(u.pc), m.an.Facts[u.seq].Ineff().Ineffectual())
			}
		}
		// Dead-predictor training events resolved by this instruction.
		if m.pred != nil {
			idx := m.pendHead[u.seq]
			for idx >= 0 {
				up := &m.pendBuf[idx]
				m.pred.Update(int(up.pc), up.sig, up.dead)
				// Consumed events return to the free list, capping the
				// arena at the peak number of in-flight trainings.
				next := m.pendNext[idx]
				m.pendNext[idx] = m.pendFree
				m.pendFree = idx
				idx = next
			}
			m.pendHead[u.seq] = -1
		}
		m.headSeq++
		m.count--
		m.stats.Committed++
	}
}

// ------------------------------------------------------------- writeback

// writeback completes the executing uops whose latency has elapsed,
// oldest first, so register-file write ports go to the oldest results and
// a result denied a port retries next cycle. Each completion wakes the
// consumers it was the last outstanding producer of.
func (m *Machine) writeback() {
	ports := m.cfg.RFWritePorts
	used := 0
	keep := m.inflight[:0]
	for _, s := range m.inflight {
		u := m.at(int(s))
		if u.doneCycle > m.now {
			keep = append(keep, s)
			continue
		}
		if u.hasDest {
			if ports > 0 && used >= ports {
				u.doneCycle = m.now + 1 // retry next cycle
				keep = append(keep, s)
				continue
			}
			used++
			m.stats.RFWrites++
		}
		u.state = sDone
		m.wake(u)
	}
	m.inflight = keep
}

// wake releases the consumers linked onto a completed producer: each
// whose last outstanding producer this was becomes ready to issue.
func (m *Machine) wake(u *uop) {
	for e := u.consumers; e != 0; {
		ed := &m.edges[e]
		c := m.at(int(ed.consumer))
		if c.pending--; c.pending == 0 {
			m.ready = insertSeq(m.ready, ed.consumer)
		}
		next := ed.next
		ed.next = m.edgeFree
		m.edgeFree = e
		e = next
	}
	u.consumers = 0
}

// ----------------------------------------------------------------- issue

// issue selects ready uops oldest first, subject to issue width,
// functional units and register-file read ports.
func (m *Machine) issue() {
	alus := m.cfg.IntALUs
	muldivs := m.cfg.MulDivs
	memPorts := m.cfg.MemPorts
	readPorts := m.cfg.RFReadPorts
	readsUsed := 0
	issued := 0

	// A steered machine has a second issue budget and a private narrow ALU
	// pool; mul/div units, memory ports, and register-file ports stay
	// shared between the clusters.
	narrowALUs := m.cfg.NarrowALUs
	narrowCap := 0
	if m.steer != nil {
		m.stats.ClusterOccupancy[0] += int64(m.iqCount[0])
		m.stats.ClusterOccupancy[1] += int64(m.iqCount[1])
		// The narrow budget only widens the scan bound when a narrow uop
		// is actually waiting; with none queued the extra scan could
		// never issue anything, so skipping it changes no decision.
		if m.iqCount[1] > 0 {
			narrowCap = m.cfg.NarrowIssueWidth
		}
	}
	narrowIssued := 0

	ready := m.ready
	keep := ready[:0]
	i := 0
	for ; i < len(ready) && issued+narrowIssued < m.cfg.IssueWidth+narrowCap; i++ {
		s := ready[i]
		u := m.at(int(s))
		narrow := u.cluster == 1
		if narrow {
			if narrowIssued == narrowCap {
				keep = append(keep, s)
				continue
			}
		} else if issued == m.cfg.IssueWidth {
			keep = append(keep, s)
			continue
		}
		// Functional unit availability.
		var unit *int
		switch {
		case u.unit == unitMulDiv:
			unit = &muldivs
		case u.unit == unitMem:
			unit = &memPorts
		case narrow:
			unit = &narrowALUs
		default:
			unit = &alus
		}
		if *unit == 0 {
			keep = append(keep, s)
			continue
		}
		// Register-file read ports.
		nsrc := int(u.nsrc)
		if readPorts > 0 && readsUsed+nsrc > readPorts {
			keep = append(keep, s)
			continue
		}

		*unit--
		readsUsed += nsrc
		if narrow {
			narrowIssued++
		} else {
			issued++
		}
		m.stats.RFReads += int64(nsrc)
		u.state = sIssued
		u.doneCycle = m.now + int64(m.execLatency(u))
		if narrow {
			// Cross-cluster bypass: results computed in the narrow cluster
			// reach full-cluster consumers one cycle later.
			u.doneCycle++
		}
		m.iqCount[u.cluster]--
		m.inflight = insertSeq(m.inflight, s)
	}
	m.ready = append(keep, ready[i:]...)
}

func (m *Machine) execLatency(u *uop) int {
	if !u.isLoad {
		return int(u.lat)
	}
	// A load whose youngest producer store is still in flight forwards
	// from the LSQ and never probes the cache.
	r := m.tr.Ref(u.seq)
	for _, p := range r.MemProducers() {
		if int(p) >= m.headSeq {
			return m.cfg.Cache.HitLatency
		}
	}
	return m.mem.Access(r.Addr(), int(r.Width()), false)
}

// decode builds the uop of record r in its slot, with everything issue
// and commit need from the record (a load still reads its address and
// producer stores at issue).
func (m *Machine) decode(u *uop, seq int, r trace.Ref) {
	op := r.Op()
	f := op.Flags()
	*u = uop{
		seq:     seq,
		hasDest: f.Has(isa.FlagHasDest) && r.Rd() != isa.RZero,
		isLoad:  f.Has(isa.FlagLoad),
		isStore: f.Has(isa.FlagStore),
		lat:     1, // ALU ops, and a store's address generation (data written at commit)
		pc:      r.PC(),
	}
	switch {
	case op == isa.MUL:
		u.unit, u.lat = unitMulDiv, int32(m.cfg.MulLatency)
	case op == isa.DIVU || op == isa.REMU:
		u.unit, u.lat = unitMulDiv, int32(m.cfg.DivLatency)
	case f.Has(isa.FlagMem):
		u.unit = unitMem
	}
	if f.Has(isa.FlagReadsRs1) && r.Rs1() != isa.RZero {
		u.nsrc++
	}
	if f.Has(isa.FlagReadsRs2) && r.Rs2() != isa.RZero {
		u.nsrc++
	}
}

// link makes the waiting uop u wait for producer p when p is still
// waiting or executing. A committed or eliminated producer never blocks a
// consumer (an eliminated one is read only by consumers that already paid
// a recovery). A producer leaves waiting and executing only at writeback,
// which wakes u in the same cycle, before issue. A load waits on its
// in-flight producer stores the same way: a store has no destination, so
// it never waits for a write port and is done in the writeback of the
// cycle its execution ends.
func (m *Machine) link(u *uop, p int32) {
	if p == trace.NoProducer || int(p) < m.headSeq {
		return
	}
	pu := m.at(int(p))
	if pu.state != sWaiting && pu.state != sIssued {
		return
	}
	e := m.edgeFree
	if e != 0 {
		m.edgeFree = m.edges[e].next
	} else {
		e = int32(len(m.edges))
		m.edges = append(m.edges, edge{})
	}
	m.edges[e] = edge{consumer: int32(u.seq), next: pu.consumers}
	pu.consumers = e
	u.pending++
}

// ---------------------------------------------------------------- rename

func (m *Machine) rename() {
	if m.now < m.renameStallUntil {
		m.stats.StallRecovery++
		return
	}
	for k := 0; k < m.cfg.RenameWidth && m.fqLen > 0; k++ {
		seq := m.fq[m.fqHead]
		r := m.tr.Ref(seq)
		if m.count == m.cfg.ROBSize {
			m.stats.StallROB++
			return
		}

		// The slot for seq is free (its previous occupant committed when
		// count dropped below the ROB size), so build the uop in place; a
		// stall below simply leaves the slot to be rewritten on retry.
		u := m.at(seq)
		m.decode(u, seq, r)

		elim := false
		switch {
		case m.cfg.Elim && m.cfg.OracleElim && m.an.Facts[seq].Candidate():
			// Limit study: perfect deadness knowledge, no training.
			if m.an.Facts[seq].Kind().Dead() {
				elim = true
				m.stats.DeadPredictions++
			}
		case m.pred != nil && m.an.Facts[seq].Candidate():
			sig := m.preds.SigAfter(seq, m.cfg.DIP.PathLen)
			if m.pred.Predict(int(r.PC()), sig) {
				elim = true
				m.stats.DeadPredictions++
			}
			m.schedule(seq, r.PC(), sig)
		}

		if !elim {
			// A consumer of a poisoned value exposes a dead
			// misprediction: recover before this instruction renames.
			if m.checkPoison(r) {
				return
			}
			if m.iqCount[0]+m.iqCount[1] == m.cfg.IQSize {
				m.stats.StallIQ++
				return
			}
			if (u.isLoad || u.isStore) && m.lsqCount == m.cfg.LSQSize {
				m.stats.StallLSQ++
				return
			}
			if u.hasDest {
				if m.freeRegs == 0 {
					m.stats.StallFreeList++
					return
				}
				m.freeRegs--
				m.stats.PhysAllocs++
				u.allocated = true
			}
			// Cluster steering happens last, past every stall-return above,
			// so a rename retry cannot double-count a steering decision.
			if m.steer != nil && m.an.Facts[seq].Candidate() && m.steer.Predict(int(r.PC())) {
				u.cluster = 1
				m.stats.SteeredNarrow++
				if !m.an.Facts[seq].Ineff().Ineffectual() {
					m.stats.SteerMispredicts++
				}
			}
		}

		// Commit point of no return: consume the fetch queue entry.
		if m.fqHead++; m.fqHead == len(m.fq) {
			m.fqHead = 0
		}
		m.fqLen--
		if u.hasDest {
			m.poisoned[r.Rd()] = elim
		}
		if elim {
			u.state = sEliminated
			if u.isStore {
				m.elimStore[seq] = true
			}
		} else {
			u.state = sWaiting
			m.iqCount[u.cluster]++
			if u.isLoad || u.isStore {
				m.lsqCount++
			}
			m.link(u, r.Src1())
			m.link(u, r.Src2())
			if u.isLoad {
				for _, p := range r.MemProducers() {
					m.link(u, p)
				}
			}
			if u.pending == 0 {
				// Younger than every queued uop: the tail keeps ready sorted.
				m.ready = append(m.ready, int32(seq))
			}
		}
		m.tailSeq = seq + 1
		m.count++
	}
}

// checkPoison fires a recovery if the instruction reads a value whose
// producer was eliminated. It returns true when rename must stall.
func (m *Machine) checkPoison(r trace.Ref) bool {
	hit := false
	f := r.Op().Flags()
	if f.Has(isa.FlagReadsRs1) && r.Rs1() != isa.RZero && m.poisoned[r.Rs1()] {
		m.poisoned[r.Rs1()] = false
		hit = true
	}
	if f.Has(isa.FlagReadsRs2) && r.Rs2() != isa.RZero && m.poisoned[r.Rs2()] {
		m.poisoned[r.Rs2()] = false
		hit = true
	}
	if f.Has(isa.FlagLoad) && m.elimStore != nil {
		for _, p := range r.MemProducers() {
			if m.elimStore[p] {
				m.elimStore[p] = false
				// Resurrecting the store performs its cache write now.
				pr := m.tr.Ref(int(p))
				m.mem.Access(pr.Addr(), int(pr.Width()), true)
				hit = true
			}
		}
	}
	if !hit {
		return false
	}
	// Recovery: squash-and-reexecute of the eliminated producer, charged
	// as a flat rename stall plus the producer's resource costs.
	m.stats.DeadMispredicts++
	m.stats.PhysAllocs++
	m.stats.PhysFrees++
	m.stats.RFWrites++
	m.renameStallUntil = m.now + int64(m.cfg.DeadRecoveryPenalty)
	return true
}

// schedule queues the dead-predictor training event at the instruction's
// resolution point (when the pipeline learns the outcome). Events append
// to the arena and chain onto their resolve bucket in arrival order.
func (m *Machine) schedule(seq int, pc int32, sig uint16) {
	dead := m.an.Facts[seq].Kind().Dead()
	resolve := m.an.Resolve[seq]
	if int(resolve) >= m.n {
		// Resolves beyond the simulated window; train at own commit.
		resolve = int32(seq)
	}
	var idx int32
	if m.pendFree >= 0 {
		idx = m.pendFree
		m.pendFree = m.pendNext[idx]
		m.pendBuf[idx] = pendingUpd{pc, sig, dead}
		m.pendNext[idx] = -1
	} else {
		idx = int32(len(m.pendBuf))
		m.pendBuf = append(m.pendBuf, pendingUpd{pc, sig, dead})
		m.pendNext = append(m.pendNext, -1)
	}
	if m.pendHead[resolve] < 0 {
		m.pendHead[resolve] = idx
	} else {
		m.pendNext[m.pendTail[resolve]] = idx
	}
	m.pendTail[resolve] = idx
}

// ----------------------------------------------------------------- fetch

func (m *Machine) fetch() {
	if m.fetchStall > 0 {
		m.fetchStall--
		return
	}
	if m.redirect >= 0 {
		if m.redirect >= m.tailSeq {
			return // the branch has not even renamed yet
		}
		if m.redirect >= m.headSeq {
			u := m.at(m.redirect)
			if u.state != sDone || u.doneCycle > m.now {
				return
			}
		}
		m.redirect = -1
	}
	n := m.n
	for k := 0; k < m.cfg.FetchWidth; k++ {
		if m.fetchSeq >= n || m.fqLen >= len(m.fq) {
			return
		}
		seq := m.fetchSeq
		r := m.tr.Ref(seq)
		tail := m.fqHead + m.fqLen
		if tail >= len(m.fq) {
			tail -= len(m.fq)
		}
		m.fq[tail] = seq
		m.fqLen++
		m.fetchSeq++

		switch {
		case r.Op().IsCondBranch():
			if m.preds.PredAt(seq) != r.Taken() {
				m.redirect = seq
				return
			}
			if r.Taken() && !m.btbHit(r) {
				return
			}
		case r.Op() == isa.JAL:
			if r.Rd() == isa.RLink {
				// A call: remember the return address.
				m.ras.Push(int(r.PC()) + 1)
			}
			if !m.btbHit(r) {
				return
			}
		case r.Op() == isa.JALR:
			if r.Rs1() == isa.RLink && r.Rd() == isa.RZero {
				// A return: the RAS predicts the target.
				if tgt, ok := m.ras.Pop(); ok && tgt == int(r.NextPC()) {
					continue // correctly predicted; keep fetching
				}
				m.stats.ReturnMispredicts++
				m.redirect = seq
				return
			}
			// Other indirect target: a BTB miss or a stale target stalls
			// the front end until the jump resolves.
			if tgt, ok := m.btb.Lookup(int(r.PC())); !ok || tgt != int(r.NextPC()) {
				m.btb.Update(int(r.PC()), int(r.NextPC()))
				m.stats.BTBMisses++
				m.redirect = seq
				return
			}
		}
	}
}

// btbHit looks up a taken control transfer, charging the miss bubble and
// installing the target on a miss. It reports whether fetch may continue
// this cycle.
func (m *Machine) btbHit(r trace.Ref) bool {
	if tgt, ok := m.btb.Lookup(int(r.PC())); ok && tgt == int(r.NextPC()) {
		return true
	}
	m.btb.Update(int(r.PC()), int(r.NextPC()))
	m.stats.BTBMisses++
	m.fetchStall = int64(m.cfg.BTBMissBubble)
	return false
}
