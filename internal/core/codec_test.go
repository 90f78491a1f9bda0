package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/artifact"
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

// encode runs a codec into memory.
func encode(tb testing.TB, c artifact.Codec, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf, v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
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
	if _, _, err := codec.Decode(valid); err != nil {
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
		v, _, err := codec.Decode(payload)
		if err != nil {
			return
		}
		defer v.(*ProfileResult).ReleaseArtifact()
		if again := encode(t, codec, v); !bytes.Equal(again, payload) {
			t.Fatalf("accepted %d-byte payload re-encodes to %d different bytes", len(payload), len(again))
		}
	})
}

// TestScalarCodecPaths runs the scalar branches that lebytes.Little gates
// in the trace, profile and result codecs, which otherwise only a
// big-endian host takes. With the bulk copies switched off, a trace, a
// profile and both result kinds must encode to the bytes the bulk paths
// wrote and decode those bytes to equal values. It flips a package
// variable, so it must not run in parallel.
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
		got, _, err := c.codec.Decode(bulk[i+1])
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
