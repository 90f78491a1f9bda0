// Chunk-schedule equivalence guard: the fused pass may be fed the trace
// one sealed chunk — one shard of the columnar store — at a time while
// the trace is still growing, as emu.CollectAnalyzed does, and must still
// reproduce the serial []Record reference bit for bit. The sweep varies
// how far the analysis trails the growing trace, and every stream is sized
// for a single chunk, so any longer trace reallocates its fact columns
// mid-walk and must carry the facts of the chunks already fed across.
package repro_test

import (
	"testing"

	"repro/internal/deadness"
	"repro/internal/trace"
	"repro/internal/workload"
)

// shardLags is how many sealed chunks the analysis trails the growing
// trace by: 1 is the emulator's schedule, 2 and 3 leave the trace several
// chunks ahead of the walk, and 64 exceeds every trace here, so each chunk
// is fed only after the last record has been pushed.
var shardLags = []int{1, 2, 3, 64}

// analyzeSharded pushes recs into a fresh trace and feeds a one-chunk
// stream each chunk once lag chunks are sealed and not yet fed, then feeds
// the rest and finishes.
func analyzeSharded(recs []trace.Record, lag int) (*trace.Trace, *deadness.Analysis) {
	tr := &trace.Trace{}
	st := deadness.NewStream(trace.ChunkSize)
	sent := 0
	for i := range recs {
		tr.Push(&recs[i])
		if tr.Len()>>trace.ChunkBits-sent >= lag {
			st.Chunk(tr.Chunk(sent))
			sent++
		}
	}
	for ; sent < tr.NumChunks(); sent++ {
		st.Chunk(tr.Chunk(sent))
	}
	return tr, st.Finish(tr)
}

func TestShardedAnalysisMatchesSerial(t *testing.T) {
	const budget = 120_000
	for _, prof := range workload.Suite() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			raw, recs := collectRaw(t, prof, budget)
			input := raw.Records()
			if err := refLink(recs); err != nil {
				t.Fatal(err)
			}
			ref := refAnalyze(recs)

			for _, lag := range shardLags {
				tr, a := analyzeSharded(input, lag)
				checkAgainstRef(t, "lag/"+itoa(lag), tr, a, recs, ref)
			}
		})
	}
}

// TestShardedChunkBoundaryShapes sweeps synthetic traces whose lengths
// straddle every chunk-layout edge — in particular exact chunk multiples,
// so a truncated trace's cut lands precisely on a chunk boundary — fed
// chunk by chunk at every lag, against the reference, and pins the
// unresolved→n sentinel rewrite.
func TestShardedChunkBoundaryShapes(t *testing.T) {
	const cs = trace.ChunkSize
	lengths := []int{1, 2, cs - 1, cs, cs + 1, 2 * cs, 2*cs + 1, 3*cs + cs/3}
	for _, n := range lengths {
		for _, halted := range []bool{false, true} {
			name := "trunc"
			if halted {
				name = "halt"
			}
			t.Run(name+"/"+itoa(n), func(t *testing.T) {
				recs := synthRecords(n, halted)
				ref := append([]trace.Record(nil), recs...)
				if err := refLink(ref); err != nil {
					t.Fatal(err)
				}
				refA := refAnalyze(ref)

				for _, lag := range shardLags {
					tr, a := analyzeSharded(recs, lag)
					checkAgainstRef(t, "lag/"+itoa(lag), tr, a, ref, refA)
					checkResolveSentinel(t, a, n)
				}
			})
		}
	}
}
