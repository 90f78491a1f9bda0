package deadness

import (
	"sort"

	"repro/internal/trace"
)

// StaticStat aggregates the dynamic behaviour of one static instruction.
type StaticStat struct {
	PC   int
	Dyn  int // candidate dynamic instances
	Dead int // of which dead
}

// Ratio is the deadness ratio of the static instruction.
func (s StaticStat) Ratio() float64 {
	if s.Dyn == 0 {
		return 0
	}
	return float64(s.Dead) / float64(s.Dyn)
}

// StaticProfile groups candidates by static PC and returns the stats of
// every static instruction with at least one dead instance, sorted by
// descending dead count (ties broken by PC for determinism).
func (a *Analysis) StaticProfile(t *trace.Trace) []StaticStat {
	byPC := make(map[int32]*StaticStat)
	for ci := 0; ci < t.NumChunks(); ci++ {
		c := t.Chunk(ci)
		base := ci << trace.ChunkBits
		for i := 0; i < c.Len(); i++ {
			seq := base + i
			f := a.Facts[seq]
			if !f.Candidate() {
				continue
			}
			pc := c.PC[i]
			st, ok := byPC[pc]
			if !ok {
				st = &StaticStat{PC: int(pc)}
				byPC[pc] = st
			}
			st.Dyn++
			if f.Kind().Dead() {
				st.Dead++
			}
		}
	}
	out := make([]StaticStat, 0, len(byPC))
	for _, st := range byPC {
		if st.Dead > 0 {
			out = append(out, *st)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dead != out[j].Dead {
			return out[i].Dead > out[j].Dead
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// Locality summarizes claim 3 of the paper: most dynamic dead instances
// come from a small set of static instructions that are dead most of the
// time, and (claim 2) the majority of those static instructions also
// produce useful results.
type Locality struct {
	// DeadStatics is the number of static instructions with ≥1 dead
	// instance; TotalDead is the dynamic dead instance count.
	DeadStatics int
	TotalDead   int

	// CoverageAt[i] is the fraction of dynamic dead instances produced by
	// the top CoveragePoints[i] static instructions.
	CoveragePoints []int
	CoverageAt     []float64

	// PartiallyDeadStatics counts dead-producing static instructions that
	// also produce useful results; FullyDeadStatics are dead every time.
	PartiallyDeadStatics int
	FullyDeadStatics     int
	// DeadFromPartial is the fraction of dynamic dead instances that come
	// from partially dead static instructions.
	DeadFromPartial float64
	// MostlyDeadShare is the fraction of dynamic dead instances from
	// static instructions dead in more than half of their instances.
	MostlyDeadShare float64
}

// DefaultCoveragePoints are the top-N cutoffs reported by the locality
// experiment.
var DefaultCoveragePoints = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// ComputeLocality derives the locality summary from a static profile.
func ComputeLocality(profile []StaticStat, points []int) Locality {
	if points == nil {
		points = DefaultCoveragePoints
	}
	loc := Locality{
		DeadStatics:    len(profile),
		CoveragePoints: points,
		CoverageAt:     make([]float64, len(points)),
	}
	totalDead := 0
	fromPartial := 0
	fromMostlyDead := 0
	for _, st := range profile {
		totalDead += st.Dead
		if st.Dead == st.Dyn {
			loc.FullyDeadStatics++
		} else {
			loc.PartiallyDeadStatics++
			fromPartial += st.Dead
		}
		if st.Ratio() > 0.5 {
			fromMostlyDead += st.Dead
		}
	}
	loc.TotalDead = totalDead
	if totalDead == 0 {
		return loc
	}
	loc.DeadFromPartial = float64(fromPartial) / float64(totalDead)
	loc.MostlyDeadShare = float64(fromMostlyDead) / float64(totalDead)

	cum := 0
	pi := 0
	for i, st := range profile {
		cum += st.Dead
		for pi < len(points) && points[pi] == i+1 {
			loc.CoverageAt[pi] = float64(cum) / float64(totalDead)
			pi++
		}
	}
	for ; pi < len(points); pi++ {
		loc.CoverageAt[pi] = 1.0
	}
	return loc
}
