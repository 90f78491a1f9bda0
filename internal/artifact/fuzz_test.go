package artifact

import (
	"bytes"
	"testing"
)

// FuzzUnframe throws arbitrary bytes at the frame verifier that guards
// every remote fetch. The property: no panic, and a frame Unframe
// accepts is exactly what Frame writes for the payload it returns, so no
// byte outside a verified header and payload gets through. Seeds (a
// valid frame, a truncated header, a bad CRC, a length mismatch) live in
// testdata/fuzz/FuzzUnframe.
func FuzzUnframe(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Unframe(data)
		if err != nil {
			return
		}
		if !bytes.Equal(Frame(payload), data) {
			t.Fatalf("Unframe accepted %x, which Frame does not reproduce", data)
		}
	})
}
