package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeBody feeds arbitrary bytes to decodeBody as the body of each
// query endpoint's request and holds it to its contract. It never panics.
// A refusal answers 400, or 413 only for a body over maxBodyBytes. An
// accepted body fits the limit, is exactly one JSON value (json.Valid
// allows nothing but whitespace around it), and decodes to what a plain
// strict decode of the same bytes gives. Seeds live in
// testdata/fuzz/FuzzDecodeBody; the oversized one is built here.
func FuzzDecodeBody(f *testing.F) {
	f.Add([]byte(`{"bench":"` + strings.Repeat("x", maxBodyBytes) + `"}`))
	shapes := []func() any{
		func() any { return new(experimentRequest) },
		func() any { return new(predEvalRequest) },
		func() any { return new(profileRequest) },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shape := range shapes {
			got := shape()
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
			if !decodeBody(w, r, got) {
				switch {
				case w.Code == http.StatusBadRequest:
				case w.Code == http.StatusRequestEntityTooLarge && len(data) > maxBodyBytes:
				default:
					t.Fatalf("%T: refused a %d-byte body with status %d", got, len(data), w.Code)
				}
				continue
			}
			if len(data) > maxBodyBytes || !json.Valid(data) {
				t.Fatalf("%T: accepted %d bytes that are not one JSON value within the limit", got, len(data))
			}
			want := shape()
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(want); err != nil {
				t.Fatalf("%T: accepted a body a strict decode refuses: %v", got, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%T: decoded %+v, strict decode gives %+v", got, got, want)
			}
		}
	})
}
