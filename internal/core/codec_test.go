package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/deadness"
	"repro/internal/dip"
	"repro/internal/lebytes"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallProfile profiles gzip for budget instructions, outside any
// workspace.
func smallProfile(tb testing.TB, budget int) *ProfileResult {
	tb.Helper()
	p, err := workload.ByName("gzip")
	if err != nil {
		tb.Fatal(err)
	}
	res, err := Profile(p, nil, budget)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// encode runs a codec, failing the test on an error.
func encode(tb testing.TB, c artifact.Codec, v any) []byte {
	tb.Helper()
	b, err := c.Encode(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzProfileDecode throws arbitrary bytes at the profile codec, which
// reads disk and remote payloads. The property: no panic, and a payload
// it accepts is exactly the bytes Encode writes for the decoded value.
// Seeds are a real few-thousand-instruction profile and the near-misses
// Decode must refuse: truncated, trailing garbage, a stale version, a
// benchmark outside the suite and another budget.
func FuzzProfileDecode(f *testing.F) {
	const budget = 3_000
	codec := profileCodec{budget}
	valid := encode(f, codec, smallProfile(f, budget))
	if _, err := codec.Decode(valid); err != nil {
		f.Fatalf("the valid seed is refused: %v", err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(bytes.Clone(valid), 0))
	for _, patch := range [][2]string{
		{fmt.Sprintf(`"Version":%d`, profileCodecVersion), fmt.Sprintf(`"Version":%d`, profileCodecVersion-1)},
		{`"Bench":"gzip"`, `"Bench":"gzop"`},
		{fmt.Sprintf(`"Budget":%d`, budget), fmt.Sprintf(`"Budget":%d`, budget+1)},
	} {
		f.Add(bytes.Replace(valid, []byte(patch[0]), []byte(patch[1]), 1))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := codec.Decode(payload)
		if err != nil {
			return
		}
		if again := encode(t, codec, v); !bytes.Equal(again, payload) {
			t.Fatalf("accepted %d-byte payload re-encodes to %d different bytes", len(payload), len(again))
		}
	})
}

// TestFactCombinationsRoundTrip builds every combination of Kind,
// candidacy, ever-read and IneffKind. Each must read back from its Fact,
// deadness.Restore must accept exactly those an analysis can produce (a
// non-candidate is Live and effectual) and refuse values outside the
// layout, and the profile codec must decode a profile whose records cycle
// through the accepted ones to the same facts.
func TestFactCombinationsRoundTrip(t *testing.T) {
	var valid []deadness.Fact
	for k := deadness.Live; k <= deadness.Transitive; k++ {
		for _, cand := range []bool{false, true} {
			for _, read := range []bool{false, true} {
				for in := deadness.IneffNone; in <= deadness.TrivialOp; in++ {
					f := deadness.NewFact(k, cand, read, in)
					if f.Kind() != k || f.Candidate() != cand || f.EverRead() != read || f.Ineff() != in {
						t.Fatalf("NewFact(%v, %v, %v, %v) = %#x reads back %v, %v, %v, %v",
							k, cand, read, in, uint8(f), f.Kind(), f.Candidate(), f.EverRead(), f.Ineff())
					}
					want := cand || (k == deadness.Live && in == deadness.IneffNone)
					if _, err := deadness.Restore(1, []deadness.Fact{f}, []int32{1}); (err == nil) != want {
						t.Errorf("Restore of %#x: error %v, want accepted %v", uint8(f), err, want)
					}
					if want {
						valid = append(valid, f)
					}
				}
			}
		}
	}
	if len(valid) != 20 {
		t.Fatalf("%d valid combinations, want 20", len(valid))
	}
	cand := deadness.NewFact(deadness.Live, true, false, deadness.IneffNone)
	for _, f := range []deadness.Fact{cand | 3, cand | 3<<4, cand | 1<<6, cand | 1<<7} {
		if _, err := deadness.Restore(1, []deadness.Fact{f}, []int32{1}); err == nil {
			t.Errorf("Restore accepted fact %#x", uint8(f))
		}
	}

	const budget = 3_000
	prof := smallProfile(t, budget)
	facts := make([]deadness.Fact, prof.Trace.Len())
	for i := range facts {
		facts[i] = valid[i%len(valid)]
	}
	a, err := deadness.Restore(len(facts), facts, prof.Analysis.Resolve)
	if err != nil {
		t.Fatal(err)
	}
	cp := *prof
	cp.Analysis = a
	codec := profileCodec{budget}
	got, err := codec.Decode(encode(t, codec, &cp))
	if err != nil {
		t.Fatal(err)
	}
	if back := got.(*ProfileResult).Analysis; !reflect.DeepEqual(back.Facts, facts) || back.Candidates() != a.Candidates() {
		t.Error("facts differ after a profile codec round trip")
	}
}

// TestScalarCodecPaths runs the trace, profile and result codecs on the
// encoding/binary branches of lebytes' column helpers, which otherwise
// only a big-endian host takes. With the bulk copies switched off, a
// trace, a profile and both result kinds must encode to the bytes the
// bulk paths wrote and decode those bytes to equal values. It flips a
// package variable, so it must not run in parallel.
func TestScalarCodecPaths(t *testing.T) {
	const budget = 10_000 // more than one trace chunk
	prof := smallProfile(t, budget)
	var pe dip.Result
	var st pipeline.Stats
	n := 0
	fillDistinct(reflect.ValueOf(&pe).Elem(), &n)
	fillDistinct(reflect.ValueOf(&st).Elem(), &n)
	cases := []struct {
		name  string
		codec artifact.Codec
		v     any
	}{
		{"profile", profileCodec{budget}, prof},
		{"predeval", predEvalCodec{}, pe},
		{"machine", machineCodec{}, st},
	}
	encodeAll := func() [][]byte {
		var img bytes.Buffer
		if err := prof.Trace.SaveLinked(&img); err != nil {
			t.Fatal(err)
		}
		out := [][]byte{img.Bytes()}
		for _, c := range cases {
			out = append(out, encode(t, c.codec, c.v))
		}
		return out
	}
	bulk := encodeAll()

	little := lebytes.Little
	t.Cleanup(func() { lebytes.Little = little })
	lebytes.Little = false
	for i, b := range encodeAll() {
		if !bytes.Equal(b, bulk[i]) {
			t.Errorf("encoding %d differs between the scalar and bulk paths", i)
		}
	}

	tr, err := trace.LoadBytes(bulk[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Records(), prof.Trace.Records()) {
		t.Error("trace: scalar decode differs")
	}
	for i, c := range cases {
		got, err := c.codec.Decode(bulk[i+1])
		if err != nil {
			t.Fatalf("%s: scalar decode: %v", c.name, err)
		}
		if p, ok := got.(*ProfileResult); ok {
			// The trace compares by its records, every other field by value.
			if !reflect.DeepEqual(p.Trace.Records(), prof.Trace.Records()) {
				t.Error("profile: scalar-decoded trace differs")
			}
			cp := *p
			cp.Trace = prof.Trace
			got = &cp
		}
		if !reflect.DeepEqual(got, c.v) {
			t.Errorf("%s: scalar decode differs:\n got %+v\nwant %+v", c.name, got, c.v)
		}
	}
}
