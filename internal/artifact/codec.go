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
// Encode returns the whole payload in memory: the store frames and
// checksums it before any byte reaches disk or the wire. Encode/Decode
// must round-trip bit-identically: a decoded artifact is served in place
// of a rebuild, and the store's contract is that the two are
// indistinguishable. Decode is a pure function of the payload, which
// already passed content-digest verification — as bytes, so codecs can
// slice sections in place instead of re-buffering a stream. It must not
// write the payload, and it must still validate structure: a file
// written by a different build of the code is untrusted input, so return
// an error rather than a malformed value.
type Codec interface {
	Encode(v any) ([]byte, error)
	Decode(payload []byte) (any, error)
}

// JSONCodec persists a flat result struct as canonical JSON — the same
// encoding the spec digests use.
type JSONCodec[T any] struct{}

// Encode returns v (which must be a T) as JSON and a trailing newline,
// the bytes a json.Encoder writes, which persisted entries already hold.
func (c JSONCodec[T]) Encode(v any) ([]byte, error) {
	t, ok := v.(T)
	if !ok {
		return nil, fmt.Errorf("artifact: json codec holds %T, got %T", t, v)
	}
	b, err := json.Marshal(t)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
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
