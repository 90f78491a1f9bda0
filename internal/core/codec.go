package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/compiler"
	"repro/internal/deadness"
	"repro/internal/lebytes"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Profile persistence: a profile artifact serializes as a small JSON
// header (identity, summaries and pass stats), the linked trace in the
// trace package's linked binary format, and the analysis fact arrays as
// raw columns. No reader of a decoded profile needs its program, so the
// program is not stored and Decode compiles nothing: decoding is a pure
// function of the payload and the workspace budget.
//
// Layout: uvarint header length, JSON header, uvarint trace length,
// SaveLinked trace, then Kind/Candidate/EverRead/Ineff as one byte per
// record and Resolve as little-endian int32. Every section is validated
// on decode (canonical strict JSON naming a suite benchmark, minimal
// length prefixes, the trace loader's own checks, 0/1 booleans,
// deadness.Restore's invariants); a payload that fails any of them is
// treated as corrupt and rebuilt. So an accepted payload is exactly the
// bytes Encode writes for the value it decodes to.

// profileCodecVersion is the format generation of the profile payload.
// It gates every structural change to the layout (version 2 added the
// Ineff fact column; version 3 replaced the compile options with the
// pass stats): an entry written by a different generation — including
// pre-versioning entries, whose headers decode with Version 0 — is
// *stale*, not corrupt. Decode rejects it with an ordinary error, which
// the artifact tiers translate into delete + rebuild (Store.diskLoad),
// never into a corruption failure.
const profileCodecVersion = 3

// profileHeader is the JSON section of a persisted profile.
type profileHeader struct {
	Version   int `json:",omitempty"`
	Bench     string
	Budget    int
	PassStats compiler.PassStats
	Summary   deadness.Summary
	Locality  deadness.Locality
}

// maxProfileHeaderBytes bounds the untrusted header-length prefix.
const maxProfileHeaderBytes = 1 << 20

// profileCodec persists KindProfile artifacts for a workspace of the
// given budget; Decode rejects an entry built under any other.
type profileCodec struct {
	budget int
}

// uvarint reads a length prefix, refusing an encoding longer than the
// minimal one PutUvarint writes (n <= 0 on any failure).
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 0 && n != max(1, (bits.Len64(v)+6)/7) {
		return 0, 0
	}
	return v, n
}

func (c profileCodec) Encode(v any) ([]byte, error) {
	res, ok := v.(*ProfileResult)
	if !ok {
		return nil, fmt.Errorf("core: profile codec got %T", v)
	}
	if res.Trace == nil || !res.Trace.Linked {
		return nil, fmt.Errorf("core: profile codec requires a linked trace")
	}
	n := res.Trace.Len()
	a := res.Analysis
	if a == nil || len(a.Kind) != n || len(a.Candidate) != n || len(a.EverRead) != n ||
		len(a.Resolve) != n || len(a.Ineff) != n {
		return nil, fmt.Errorf("core: profile codec: analysis does not match %d-record trace", n)
	}
	hdr, err := json.Marshal(profileHeader{
		Version:   profileCodecVersion,
		Bench:     res.Bench,
		Budget:    c.budget,
		PassStats: res.PassStats,
		Summary:   res.Summary,
		Locality:  res.Locality,
	})
	if err != nil {
		return nil, err
	}
	tlen := res.Trace.LinkedSize()
	out := make([]byte, 0, 2*binary.MaxVarintLen64+len(hdr)+int(tlen)+8*n)
	out = binary.AppendUvarint(out, uint64(len(hdr)))
	out = append(out, hdr...)
	out = binary.AppendUvarint(out, uint64(tlen))
	buf := bytes.NewBuffer(out)
	if err := res.Trace.SaveLinked(buf); err != nil {
		return nil, err
	}
	out = buf.Bytes()
	out = append(out, lebytes.U8(a.Kind)...)
	out = append(out, lebytes.Bool(a.Candidate)...)
	out = append(out, lebytes.Bool(a.EverRead)...)
	out = append(out, lebytes.U8(a.Ineff)...)
	out = append(out, make([]byte, 4*n)...)
	lebytes.PutI32s(out[len(out)-4*n:], a.Resolve)
	return out, nil
}

func (c profileCodec) Decode(payload []byte) (any, error) {
	hlen, hn := uvarint(payload)
	if hn <= 0 {
		return nil, fmt.Errorf("core: profile decode: header length: %w", io.ErrUnexpectedEOF)
	}
	if hlen > maxProfileHeaderBytes {
		return nil, fmt.Errorf("core: profile decode: header claims %d bytes", hlen)
	}
	off := hn
	if uint64(len(payload)-off) < hlen {
		return nil, fmt.Errorf("core: profile decode: header: %w", io.ErrUnexpectedEOF)
	}
	var h profileHeader
	hdr := payload[off : off+int(hlen)]
	dec := json.NewDecoder(bytes.NewReader(hdr))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("core: profile decode: header: %w", err)
	}
	if canon, err := json.Marshal(h); err != nil || !bytes.Equal(canon, hdr) {
		return nil, fmt.Errorf("core: profile decode: header is not in canonical form")
	}
	off += int(hlen)
	if h.Version != profileCodecVersion {
		// A different format generation (including pre-versioning entries,
		// which decode with Version 0) is stale, not corrupt: the caller
		// deletes the entry and rebuilds through the ordinary build path.
		return nil, fmt.Errorf("core: profile decode: stale codec version %d, want %d",
			h.Version, profileCodecVersion)
	}
	if _, err := workload.ByName(h.Bench); err != nil {
		return nil, fmt.Errorf("core: profile decode: %w", err)
	}
	if h.Budget != c.budget {
		return nil, fmt.Errorf("core: profile decode: entry budget %d, workspace budget %d", h.Budget, c.budget)
	}
	tlen, tn := uvarint(payload[off:])
	if tn <= 0 {
		return nil, fmt.Errorf("core: profile decode: trace length: %w", io.ErrUnexpectedEOF)
	}
	off += tn
	if tlen > uint64(len(payload)-off) {
		return nil, fmt.Errorf("core: profile decode: trace section claims %d bytes, have %d", tlen, len(payload)-off)
	}
	tr, err := trace.LoadBytes(payload[off:off+int(tlen)], 0)
	if err != nil {
		return nil, fmt.Errorf("core: profile decode: %w", err)
	}
	off += int(tlen)
	n := tr.Len()
	if len(payload)-off != 4*n+4*n {
		return nil, fmt.Errorf("core: profile decode: analysis section is %d bytes, want %d", len(payload)-off, 8*n)
	}
	kind := make([]deadness.Kind, n)
	bools := [2][]bool{make([]bool, n), make([]bool, n)}
	ineff := make([]deadness.IneffKind, n)
	resolve := make([]int32, n)
	copy(lebytes.U8(kind), payload[off:off+n])
	off += n
	for ci, col := range bools {
		if i := lebytes.FirstNonBool(payload[off : off+n]); i >= 0 {
			return nil, fmt.Errorf("core: profile decode: bool column %d: byte %d", ci, payload[off+i])
		}
		copy(lebytes.Bool(col), payload[off:off+n])
		off += n
	}
	copy(lebytes.U8(ineff), payload[off:off+n])
	off += n
	lebytes.GetI32s(resolve, payload[off:])
	a, err := deadness.Restore(n, kind, bools[0], bools[1], resolve, ineff)
	if err != nil {
		return nil, err
	}
	res := newProfileResult(h.Bench, tr, a)
	res.Summary, res.Locality, res.PassStats = h.Summary, h.Locality, h.PassStats
	return res, nil
}
