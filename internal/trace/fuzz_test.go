package trace_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// FuzzTraceLoadBytes throws arbitrary bytes at the trace decoder that
// reads untrusted disk and remote payloads. The property is total: any
// input either yields a clean error, or a linked trace that round-trips
// SaveLinked→LoadBytes to a fixed point — never a panic or a runaway
// allocation (the fuzzer's memory limit enforces the latter). Real
// images of emulated suite-benchmark prefixes (one spanning two chunks)
// and truncated and size-table-corrupted variants live in
// testdata/fuzz/FuzzTraceLoadBytes; the seeds added here include images
// whose NextPC column breaks the committed path.
func FuzzTraceLoadBytes(f *testing.F) {
	empty := &trace.Trace{}
	link(f, empty)
	var e bytes.Buffer
	if err := empty.SaveLinked(&e); err != nil {
		f.Fatal(err)
	}
	f.Add(e.Bytes())
	full := linkedImage(f)
	f.Add(full)
	f.Add(full[:len(full)-6])
	f.Add(append(bytes.Clone(full), 0xff))
	// A header claiming far more records than the body holds.
	huge := bytes.Clone(full)
	binary.LittleEndian.PutUint32(huge[8:], 1<<30)
	f.Add(huge)
	// Links that break the producer rules — record 0's Src1 naming a later
	// record, and the one load's producer count over its access width — so
	// the mutator also starts next to the link validators.
	_, src1Off, prodOff := linkedSample(f)
	forward := bytes.Clone(full)
	binary.LittleEndian.PutUint32(forward[src1Off:], 3)
	f.Add(forward)
	wide := bytes.Clone(full)
	wide[prodOff] = 9
	f.Add(wide)
	// NextPC columns that break the committed path, inside a chunk and
	// at a chunk boundary.
	inChunk, atBoundary := brokenPathImages(f)
	f.Add(inChunk)
	f.Add(atBoundary)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.LoadBytes(data, 1<<16)
		if err != nil {
			return
		}
		if !tr.Linked {
			t.Fatal("LoadBytes returned an unlinked trace")
		}
		var out bytes.Buffer
		if err := tr.SaveLinked(&out); err != nil {
			t.Fatalf("re-saving a loaded trace: %v", err)
		}
		back, err := trace.LoadBytes(out.Bytes(), 1<<16)
		if err != nil {
			t.Fatalf("reloading a re-saved trace: %v", err)
		}
		if !reflect.DeepEqual(back.Records(), tr.Records()) {
			t.Fatal("SaveLinked/LoadBytes round trip is not a fixed point")
		}
	})
}
