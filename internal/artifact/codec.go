package artifact

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Codec serializes one artifact kind for the persistent disk tier. A kind
// with no registered codec is simply never persisted.
//
// Encode/Decode must round-trip bit-identically: a decoded artifact is
// served in place of a rebuild, and the store's contract is that the two
// are indistinguishable. Decode receives the full payload that already
// passed content-digest verification — as bytes, so codecs can slice
// sections in place instead of re-buffering a stream — but it must still
// validate structure: a file written by a different build of the code is
// untrusted input, so return an error rather than a malformed value.
type Codec interface {
	Encode(w io.Writer, v any) error
	Decode(payload []byte) (any, error)
}

// JSONCodec persists a flat result struct as canonical JSON — the same
// encoding the spec digests use.
type JSONCodec[T any] struct{}

// Encode writes v (which must be a T) as JSON.
func (c JSONCodec[T]) Encode(w io.Writer, v any) error {
	t, ok := v.(T)
	if !ok {
		return fmt.Errorf("artifact: json codec holds %T, got %T", t, v)
	}
	return json.NewEncoder(w).Encode(t)
}

// Decode reads one strict JSON document: unknown fields and trailing
// garbage are rejected so a truncated or mismatched payload cannot decode
// to a zero-filled "success".
func (c JSONCodec[T]) Decode(payload []byte) (any, error) {
	var t T
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("artifact: json codec: %w", err)
	}
	// The payload must be exactly one document.
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("artifact: json codec: trailing data after document")
	}
	return t, nil
}

// EncodeSizeHinter is an optional Codec extension: a codec that can bound
// its encoded size up front lets the write path allocate the encode
// buffer once instead of growing (and re-zeroing) it through doublings —
// for multi-megabyte artifacts the growth copies cost more than the
// encode itself. The hint need not be exact; it is a capacity reservation.
type EncodeSizeHinter interface {
	EncodeSizeHint(v any) int
}

// encodeToBytes runs a codec into memory, for the write path (the payload
// digest must be computed over the full encoding before any byte lands on
// disk).
func encodeToBytes(c Codec, v any) ([]byte, error) {
	var buf bytes.Buffer
	if h, ok := c.(EncodeSizeHinter); ok {
		if n := h.EncodeSizeHint(v); n > 0 {
			buf.Grow(n)
		}
	}
	if err := c.Encode(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
