package trace

// Exports for the external test package. Tests that need a linked trace
// live in package trace_test, because the only linker is
// deadness.LinkAndAnalyze and package deadness imports this one.

// AddMemSrc exposes the producer-set insertion the writer-map reference
// tests compare against.
func (r *Record) AddMemSrc(w int32) { r.addMemSrc(w) }

// WPageSize is the writer map's page size in bytes.
const WPageSize = wpageSize
