package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/cache"
	"repro/internal/dip"
	"repro/internal/lebytes"
	"repro/internal/pipeline"
)

// Result-artifact persistence: predictor evaluations (KindPredEval) and
// machine runs (KindMachine) are small flat structs that used to travel
// as JSON on every disk and remote hop. They now serialize as versioned
// binary records — a one-byte format version, a CRC-32C of the body
// (belt-and-braces on top of the tier framing, so a record pulled out of
// any future transport still self-verifies), and the numeric fields as
// one little-endian u64 column moved by lebytes. Decode is
// strict: version, CRC, and exact length all must match, so a payload
// from a different build of the code rebuilds instead of mis-decoding.
const (
	// Version history: 1 had a 25-field machine column; 2 appended the six
	// clustering counters. Old entries fail the version check and rebuild.
	resultCodecVersion = 2
	resultHeaderSize   = 1 + 4 // version byte + CRC-32C of the body
)

var resultCRCTable = crc32.MakeTable(crc32.Castagnoli)

// sealResult fills the header that prefixes payload: the version byte
// and the CRC of the body after it.
func sealResult(payload []byte) []byte {
	payload[0] = resultCodecVersion
	binary.LittleEndian.PutUint32(payload[1:], crc32.Checksum(payload[resultHeaderSize:], resultCRCTable))
	return payload
}

// openResult verifies the header and returns the body.
func openResult(payload []byte, what string) ([]byte, error) {
	if len(payload) < resultHeaderSize {
		return nil, fmt.Errorf("core: %s decode: truncated header (%d bytes)", what, len(payload))
	}
	if v := payload[0]; v != resultCodecVersion {
		return nil, fmt.Errorf("core: %s decode: unsupported version %d", what, v)
	}
	body := payload[resultHeaderSize:]
	if got, want := crc32.Checksum(body, resultCRCTable), binary.LittleEndian.Uint32(payload[1:]); got != want {
		return nil, fmt.Errorf("core: %s decode: body digest mismatch", what)
	}
	return body, nil
}

// predEvalCodec persists dip.Result: uvarint-prefixed name, then a
// six-field u64 column (counters and the branch-accuracy float bits).
type predEvalCodec struct{}

const predEvalFields = 6

func predEvalColumn(r dip.Result) [predEvalFields]uint64 {
	return [predEvalFields]uint64{
		uint64(int64(r.Candidates)),
		uint64(int64(r.Dead)),
		uint64(int64(r.Predicted)),
		uint64(int64(r.TruePos)),
		uint64(int64(r.StateBits)),
		math.Float64bits(r.BranchAccuracy),
	}
}

func (predEvalCodec) Encode(v any) ([]byte, error) {
	r, ok := v.(dip.Result)
	if !ok {
		return nil, fmt.Errorf("core: predeval codec got %T", v)
	}
	p := make([]byte, resultHeaderSize, resultHeaderSize+binary.MaxVarintLen64+len(r.Name)+8*predEvalFields)
	p = binary.AppendUvarint(p, uint64(len(r.Name)))
	p = append(p, r.Name...)
	p = append(p, make([]byte, 8*predEvalFields)...)
	col := predEvalColumn(r)
	lebytes.PutU64s(p[len(p)-8*predEvalFields:], col[:])
	return sealResult(p), nil
}

func (predEvalCodec) Decode(payload []byte) (any, error) {
	body, err := openResult(payload, "predeval")
	if err != nil {
		return nil, err
	}
	nlen, nn := uvarint(body)
	if nn <= 0 || uint64(len(body)-nn) < nlen {
		return nil, fmt.Errorf("core: predeval decode: name: %w", io.ErrUnexpectedEOF)
	}
	name := string(body[nn : nn+int(nlen)])
	rest := body[nn+int(nlen):]
	if len(rest) != 8*predEvalFields {
		return nil, fmt.Errorf("core: predeval decode: column is %d bytes, want %d", len(rest), 8*predEvalFields)
	}
	var col [predEvalFields]uint64
	lebytes.GetU64s(col[:], rest)
	r := dip.Result{
		Name:           name,
		Candidates:     int(int64(col[0])),
		Dead:           int(int64(col[1])),
		Predicted:      int(int64(col[2])),
		TruePos:        int(int64(col[3])),
		StateBits:      int(int64(col[4])),
		BranchAccuracy: math.Float64frombits(col[5]),
	}
	return r, nil
}

// machineCodec persists pipeline.Stats as a fixed 31-field u64 column.
// The field order below is part of the format: changing pipeline.Stats
// requires updating both column functions and bumping resultCodecVersion
// — TestResultCodecsCoverEveryField catches a field added without one.
type machineCodec struct{}

const machineFields = 31

func machineStatsColumn(st pipeline.Stats) [machineFields]uint64 {
	cacheCol := func(c cache.Stats) [4]uint64 {
		return [4]uint64{
			uint64(int64(c.Accesses)), uint64(int64(c.Hits)),
			uint64(int64(c.Misses)), uint64(int64(c.Writebacks)),
		}
	}
	l1, l2 := cacheCol(st.Cache), cacheCol(st.L2)
	return [machineFields]uint64{
		uint64(st.Cycles), uint64(st.Committed),
		uint64(st.PhysAllocs), uint64(st.PhysFrees),
		uint64(st.RFReads), uint64(st.RFWrites),
		l1[0], l1[1], l1[2], l1[3],
		l2[0], l2[1], l2[2], l2[3],
		uint64(st.BranchMispredicts), uint64(st.BTBMisses), uint64(st.ReturnMispredicts),
		uint64(st.Eliminated), uint64(st.DeadPredictions), uint64(st.DeadMispredicts),
		uint64(st.StallFreeList), uint64(st.StallIQ), uint64(st.StallLSQ),
		uint64(st.StallROB), uint64(st.StallRecovery),
		uint64(st.ClusterCommitted[0]), uint64(st.ClusterCommitted[1]),
		uint64(st.ClusterOccupancy[0]), uint64(st.ClusterOccupancy[1]),
		uint64(st.SteeredNarrow), uint64(st.SteerMispredicts),
	}
}

func machineStatsFromColumn(col [machineFields]uint64) pipeline.Stats {
	cacheStats := func(c []uint64) cache.Stats {
		return cache.Stats{
			Accesses: int(int64(c[0])), Hits: int(int64(c[1])),
			Misses: int(int64(c[2])), Writebacks: int(int64(c[3])),
		}
	}
	return pipeline.Stats{
		Cycles: int64(col[0]), Committed: int64(col[1]),
		PhysAllocs: int64(col[2]), PhysFrees: int64(col[3]),
		RFReads: int64(col[4]), RFWrites: int64(col[5]),
		Cache:             cacheStats(col[6:10]),
		L2:                cacheStats(col[10:14]),
		BranchMispredicts: int64(col[14]), BTBMisses: int64(col[15]), ReturnMispredicts: int64(col[16]),
		Eliminated: int64(col[17]), DeadPredictions: int64(col[18]), DeadMispredicts: int64(col[19]),
		StallFreeList: int64(col[20]), StallIQ: int64(col[21]), StallLSQ: int64(col[22]),
		StallROB: int64(col[23]), StallRecovery: int64(col[24]),
		ClusterCommitted: [2]int64{int64(col[25]), int64(col[26])},
		ClusterOccupancy: [2]int64{int64(col[27]), int64(col[28])},
		SteeredNarrow:    int64(col[29]), SteerMispredicts: int64(col[30]),
	}
}

func (machineCodec) Encode(v any) ([]byte, error) {
	st, ok := v.(pipeline.Stats)
	if !ok {
		return nil, fmt.Errorf("core: machine codec got %T", v)
	}
	p := make([]byte, resultHeaderSize+8*machineFields)
	col := machineStatsColumn(st)
	lebytes.PutU64s(p[resultHeaderSize:], col[:])
	return sealResult(p), nil
}

func (machineCodec) Decode(payload []byte) (any, error) {
	body, err := openResult(payload, "machine")
	if err != nil {
		return nil, err
	}
	if len(body) != 8*machineFields {
		return nil, fmt.Errorf("core: machine decode: column is %d bytes, want %d", len(body), 8*machineFields)
	}
	var col [machineFields]uint64
	lebytes.GetU64s(col[:], body)
	return machineStatsFromColumn(col), nil
}
