package lebytes

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestLittleAgreesWithEncodingBinary pins the endianness probe against
// the standard library's arithmetic view: writing a multi-byte value
// through the reinterpreted view must read back identically through
// binary.LittleEndian exactly when Little is true.
func TestLittleAgreesWithEncodingBinary(t *testing.T) {
	s := []int32{0x04030201}
	b := i32(s)
	little := binary.LittleEndian.Uint32(b) == 0x04030201
	if little != Little {
		t.Fatalf("Little = %v, but byte order probe says little-endian = %v", Little, little)
	}
}

// TestViewsAliasAndSize checks each view covers exactly the backing
// array and writes through it are visible in the typed slice.
func TestViewsAliasAndSize(t *testing.T) {
	type kind uint8
	ks := []kind{1, 2, 3}
	if b := U8(ks); len(b) != 3 {
		t.Fatalf("U8 len = %d", len(b))
	} else {
		b[1] = 9
		if ks[1] != 9 {
			t.Fatalf("U8 view does not alias: %v", ks)
		}
	}

	bs := []bool{false, true}
	if b := Bool(bs); len(b) != 2 || b[0] != 0 || b[1] != 1 {
		t.Fatalf("Bool view = %v", b)
	} else {
		b[0] = 1
		if !bs[0] {
			t.Fatalf("Bool view does not alias: %v", bs)
		}
	}

	is := []int32{-1, 7}
	if b := i32(is); len(b) != 8 {
		t.Fatalf("i32 len = %d", len(b))
	}

	us := []uint64{1, 2, 3}
	if b := u64(us); len(b) != 24 {
		t.Fatalf("u64 len = %d", len(b))
	}

	if b := i32(nil); len(b) != 0 {
		t.Fatalf("nil i32 len = %d", len(b))
	}
}

// TestRoundTrip decodes a wire image written by encoding/binary into a
// typed column, the way the trace and profile codecs use the package.
func TestRoundTrip(t *testing.T) {
	wire := make([]byte, 8)
	binary.LittleEndian.PutUint32(wire[0:], 0xFFFFFFFE) // -2
	binary.LittleEndian.PutUint32(wire[4:], 41)
	got := make([]int32, 2)
	GetI32s(got, wire)
	if got[0] != -2 || got[1] != 41 {
		t.Fatalf("decoded %v", got)
	}
}

// TestColumnHelpers runs every column helper on both byte-order branches
// and compares each against encoding/binary: negative int32s, the
// extreme uint64s and empty columns. It flips the package's Little, so
// it must not run in parallel.
func TestColumnHelpers(t *testing.T) {
	i32s := [][]int32{nil, {}, {-1}, {math.MinInt32, -2, 0, 1, math.MaxInt32, 0x01020304}}
	u64s := [][]uint64{nil, {}, {math.MaxUint64}, {0, 1, math.MaxUint64, 0x0102030405060708, 1 << 63}}

	host := Little
	t.Cleanup(func() { Little = host })
	for _, little := range []bool{true, false} {
		Little = little
		for _, s := range i32s {
			want := make([]byte, 4*len(s))
			for i, v := range s {
				binary.LittleEndian.PutUint32(want[4*i:], uint32(v))
			}
			got := make([]byte, 4*len(s))
			PutI32s(got, s)
			if !bytes.Equal(got, want) {
				t.Errorf("Little=%v: PutI32s(%v) = %x, want %x", little, s, got, want)
			}
			back := make([]int32, len(s))
			GetI32s(back, want)
			for i := range s {
				if back[i] != s[i] {
					t.Errorf("Little=%v: GetI32s(%x) = %v, want %v", little, want, back, s)
					break
				}
			}
		}
		for _, s := range u64s {
			want := make([]byte, 8*len(s))
			for i, v := range s {
				binary.LittleEndian.PutUint64(want[8*i:], v)
			}
			got := make([]byte, 8*len(s))
			PutU64s(got, s)
			if !bytes.Equal(got, want) {
				t.Errorf("Little=%v: PutU64s(%v) = %x, want %x", little, s, got, want)
			}
			back := make([]uint64, len(s))
			GetU64s(back, want)
			for i := range s {
				if back[i] != s[i] {
					t.Errorf("Little=%v: GetU64s(%x) = %v, want %v", little, want, back, s)
					break
				}
			}
		}
	}
}

// TestFirstNonBool pins the word-at-a-time scan at its word boundaries:
// a bad byte in the first word, at its last byte, at the first byte of
// the next word and at the input's last index (past the last whole
// word), plus empty and all-valid inputs.
func TestFirstNonBool(t *testing.T) {
	const n = 21 // two whole words and a 5-byte tail
	valid := make([]byte, n)
	for i := range valid {
		valid[i] = byte(i % 2)
	}
	if got := FirstNonBool(nil); got != -1 {
		t.Errorf("empty: got %d, want -1", got)
	}
	if got := FirstNonBool(valid); got != -1 {
		t.Errorf("all valid: got %d, want -1", got)
	}
	for _, at := range []int{0, 7, 8, n - 1} {
		for _, bad := range []byte{2, 0x80, 0xFF} {
			b := bytes.Clone(valid)
			b[at] = bad
			if got := FirstNonBool(b); got != at {
				t.Errorf("byte %#x at %d: got %d", bad, at, got)
			}
			// A second bad byte later must not move the answer.
			if at+1 < n {
				b[n-1] = 2
				if got := FirstNonBool(b); got != at {
					t.Errorf("byte %#x at %d with a later bad byte: got %d", bad, at, got)
				}
			}
		}
	}
}
