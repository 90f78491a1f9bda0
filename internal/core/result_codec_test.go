package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/dip"
	"repro/internal/pipeline"
)

// fillDistinct sets every field of a struct (recursively) to a distinct
// non-zero value, so a codec that drops or transposes any field fails
// DeepEqual after a round trip.
func fillDistinct(v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() {
				continue
			}
			fillDistinct(f, next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), next)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		*next++
		v.SetInt(int64(1000 + *next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*next++
		v.SetUint(uint64(1000 + *next))
	case reflect.Float32, reflect.Float64:
		*next++
		v.SetFloat(0.5 + float64(*next)/7)
	case reflect.String:
		*next++
		v.SetString(strings.Repeat("n", 1+*next%5) + "-name")
	case reflect.Bool:
		v.SetBool(true)
	}
}

// TestResultCodecsCoverEveryField fills every field of both result
// structs via reflection and asserts a bit-exact round trip: a field
// added to dip.Result or pipeline.Stats without updating the codec (and
// bumping its version) fails here instead of silently decoding to zero.
func TestResultCodecsCoverEveryField(t *testing.T) {
	var r dip.Result
	n := 0
	fillDistinct(reflect.ValueOf(&r).Elem(), &n)
	var buf bytes.Buffer
	if err := (predEvalCodec{}).Encode(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, size, err := predEvalCodec{}.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if size != predEvalSize {
		t.Errorf("predeval size = %d, want %d", size, predEvalSize)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("predeval round trip:\n got %+v\nwant %+v", got, r)
	}

	var st pipeline.Stats
	n = 0
	fillDistinct(reflect.ValueOf(&st).Elem(), &n)
	buf.Reset()
	if err := (machineCodec{}).Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	got2, size2, err := machineCodec{}.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if size2 != machineStatsSize {
		t.Errorf("machine size = %d, want %d", size2, machineStatsSize)
	}
	if !reflect.DeepEqual(got2, st) {
		t.Errorf("machine round trip:\n got %+v\nwant %+v", got2, st)
	}
}

// TestResultCodecsRejectDamage: version skew, body corruption,
// truncation, and trailing bytes must all fail decode — a rebuild beats
// a wrong answer.
func TestResultCodecsRejectDamage(t *testing.T) {
	var buf bytes.Buffer
	r := dip.Result{Name: "cfi", Candidates: 10, Dead: 5, Predicted: 4, TruePos: 4, StateBits: 4096, BranchAccuracy: 0.93}
	if err := (predEvalCodec{}).Encode(&buf, r); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte(nil), good...), 0),
	}
	version := append([]byte(nil), good...)
	version[0] = resultCodecVersion + 1
	cases["version skew"] = version
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x10
	cases["corrupt body"] = flipped

	for name, payload := range cases {
		if _, _, err := (predEvalCodec{}).Decode(payload); err == nil {
			t.Errorf("predeval decode accepted %s payload", name)
		}
		if _, _, err := (machineCodec{}).Decode(payload); err == nil {
			t.Errorf("machine decode accepted %s payload", name)
		}
	}

	if err := (predEvalCodec{}).Encode(&buf, pipeline.Stats{}); err == nil {
		t.Error("predeval codec encoded a machine value")
	}
	if err := (machineCodec{}).Encode(&buf, dip.Result{}); err == nil {
		t.Error("machine codec encoded a predeval value")
	}
}

// TestResultCodecsAreBinary pins the satellite's point: the encoded
// records are compact binary, not JSON, and far smaller than the JSON
// they replaced.
func TestResultCodecsAreBinary(t *testing.T) {
	var buf bytes.Buffer
	r := dip.Result{Name: "global", Candidates: 1 << 20, Dead: 1 << 19, Predicted: 1 << 18, TruePos: 1 << 17, StateBits: 40960, BranchAccuracy: 0.931}
	if err := (predEvalCodec{}).Encode(&buf, r); err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(buf.Bytes()[resultHeaderSize:], []byte("{")) {
		t.Error("predeval encoding still looks like JSON")
	}
	wantMax := resultHeaderSize + 2 + len(r.Name) + 8*predEvalFields
	if buf.Len() > wantMax {
		t.Errorf("predeval encoding is %d bytes, want <= %d", buf.Len(), wantMax)
	}
	buf.Reset()
	if err := (machineCodec{}).Encode(&buf, pipeline.Stats{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), resultHeaderSize+8*machineFields; got != want {
		t.Errorf("machine encoding is %d bytes, want exactly %d", got, want)
	}
}

// FuzzResultDecode throws arbitrary bytes at the predeval and machine
// codecs, which read disk and remote payloads; machine selects which. The
// property: no panic, and a payload a codec accepts is exactly the bytes
// it encodes for the decoded value. Seeds are real results of a small
// workspace, each also offered to the other codec, plus truncated,
// stale-version and checksum-broken copies.
func FuzzResultDecode(f *testing.F) {
	w := NewWorkspaceWorkers(3_000, 1)
	pe, err := w.EvalPredictor("gzip", dip.Spec{Flavor: dip.FlavorCFI, Config: dip.DefaultConfig()})
	if err != nil {
		f.Fatal(err)
	}
	st, err := w.RunMachine("gzip", pipeline.ContendedConfig())
	if err != nil {
		f.Fatal(err)
	}
	codecOf := func(machine bool) artifact.Codec {
		if machine {
			return machineCodec{}
		}
		return predEvalCodec{}
	}
	for _, machine := range []bool{false, true} {
		var v any = pe
		if machine {
			v = st
		}
		valid := encode(f, codecOf(machine), v)
		if _, _, err := codecOf(machine).Decode(valid); err != nil {
			f.Fatalf("the valid seed is refused: %v", err)
		}
		f.Add(machine, valid)
		f.Add(!machine, valid)
		f.Add(machine, valid[:len(valid)-1])
		stale := bytes.Clone(valid)
		stale[0]--
		f.Add(machine, stale)
		broken := bytes.Clone(valid)
		broken[len(broken)-1] ^= 1
		f.Add(machine, broken)
	}
	f.Fuzz(func(t *testing.T, machine bool, payload []byte) {
		c := codecOf(machine)
		v, _, err := c.Decode(payload)
		if err != nil {
			return
		}
		if again := encode(t, c, v); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload %x re-encodes to %x", payload, again)
		}
	})
}
