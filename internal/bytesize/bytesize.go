// Package bytesize parses human-readable byte counts ("256MiB", "1GiB",
// "900000") for the CLI -disk-budget flag. One parser serves every
// command so the accepted syntax cannot drift between commands.
package bytesize

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// suffixes in longest-match-first order: "MiB" must win over "B".
var suffixes = []struct {
	name string
	mult int64
}{
	{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
	{"KB", 1000}, {"MB", 1000 * 1000}, {"GB", 1000 * 1000 * 1000},
	{"B", 1},
}

// Parse parses a byte count with an optional decimal KB/MB/GB or binary
// KiB/MiB/GiB suffix (case-insensitive). Empty means 0 (callers treat
// zero as "unlimited"). Negative counts, garbage, and values that
// overflow int64 after scaling are errors.
func Parse(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	orig := s
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, suf := range suffixes {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mult
			s = strings.TrimSpace(s[:len(s)-len(suf.name)])
			break
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bytesize: bad byte count %q (want e.g. 256MiB, 1GiB, 900000)", orig)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("bytesize: byte count %q overflows int64", orig)
	}
	return n * mult, nil
}
