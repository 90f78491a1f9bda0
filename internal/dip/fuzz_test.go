package dip

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzConfigValidate decodes arbitrary bytes into a Config the way the
// daemon's predeval endpoint does (strict JSON, unknown fields refused)
// and holds Validate to its contract: a geometry it accepts has a
// positive state size and at most maxEntries entries, so New allocates a
// bounded table. Seeds (DefaultConfig, the largest accepted geometry,
// and oversized ones) live in testdata/fuzz/FuzzConfigValidate.
func FuzzConfigValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var c Config
		if err := dec.Decode(&c); err != nil || c.Validate() != nil {
			return
		}
		if bits := c.StateBits(); bits <= 0 {
			t.Fatalf("accepted %+v with StateBits %d", c, bits)
		}
		if n := c.Ways << c.LogSets; n > maxEntries {
			t.Fatalf("accepted %+v with %d entries, cap %d", c, n, maxEntries)
		}
	})
}
