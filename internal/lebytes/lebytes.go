// Package lebytes owns the byte-order decision of every binary codec in
// the repository: it moves numeric columns between typed slices and
// their little-endian wire image. On a little-endian host a slice's
// in-memory image IS its wire image, so each column moves with one copy
// (memmove bandwidth); other hosts take an encoding/binary loop. Byte and
// bool columns have the same image on every host, so U8 and Bool view
// them with no byte-order gate.
//
// The views alias their argument's backing array via unsafe.Slice, which
// is valid because the element types carry no pointers and the byte
// length equals the original allocation's. Callers must not let a view
// outlive its slice. This is the only package that imports unsafe.
package lebytes

import (
	"encoding/binary"
	"unsafe"
)

// Little reports whether the host is little-endian. Only this package
// reads it; tests flip it to run the encoding/binary loops.
var Little = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// U8 views a byte-sized-element slice (enums, flags) as raw bytes.
func U8[T ~uint8](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// Bool views a bool slice as raw bytes (a Go bool is stored as 0 or 1).
// When writing through the view, the caller must store only 0 or 1: any
// other value is not a valid Go bool and comparisons on it misbehave, so
// check a wire column with FirstNonBool before copying it in.
func Bool(s []bool) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// FirstNonBool returns the index of the first byte in b that is neither
// 0 nor 1, or -1 if every byte is a valid bool image. It scans a word at
// a time.
func FirstNonBool(b []byte) int {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:])&^0x0101010101010101 != 0 {
			break
		}
	}
	for ; i < len(b); i++ {
		if b[i] > 1 {
			return i
		}
	}
	return -1
}

// i32 views an int32 slice as raw bytes (4 bytes per element).
func i32(s []int32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// u64 views a uint64 slice as raw bytes (8 bytes per element).
func u64(s []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

// PutI32s writes s into dst as little-endian int32s; dst must hold at
// least 4*len(s) bytes.
func PutI32s(dst []byte, s []int32) {
	if Little {
		copy(dst[:4*len(s)], i32(s))
		return
	}
	for i, v := range s {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

// GetI32s fills dst from the little-endian int32s in src, which must hold
// at least 4*len(dst) bytes.
func GetI32s(dst []int32, src []byte) {
	if Little {
		copy(i32(dst), src[:4*len(dst)])
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// PutU64s writes s into dst as little-endian uint64s; dst must hold at
// least 8*len(s) bytes.
func PutU64s(dst []byte, s []uint64) {
	if Little {
		copy(dst[:8*len(s)], u64(s))
		return
	}
	for i, v := range s {
		binary.LittleEndian.PutUint64(dst[8*i:], v)
	}
}

// GetU64s fills dst from the little-endian uint64s in src, which must
// hold at least 8*len(dst) bytes.
func GetU64s(dst []uint64, src []byte) {
	if Little {
		copy(u64(dst), src[:8*len(dst)])
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
}
