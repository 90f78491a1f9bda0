package asm

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/compiler"
	"repro/internal/emu"
)

func TestFormatRoundTripsHandWrittenProgram(t *testing.T) {
	p := mustAssemble(t, `
.data
tbl: .quad 3, 5, 8
.text
main:
    la   r1, tbl
    addi r2, r0, 3
    addi r3, r0, 0
loop:
    ld   r4, 0(r1)
    add  r3, r3, r4
    addi r1, r1, 8
    addi r2, r2, -1
    bne  r2, r0, loop
    out  r3
    halt
`)
	src := Format(p)
	q, err := Assemble("roundtrip", src)
	if err != nil {
		t.Fatalf("reassemble:\n%s\nerror: %v", src, err)
	}
	if !reflect.DeepEqual(p.Insts, q.Insts) {
		t.Fatal("instructions differ after round trip")
	}
	if !reflect.DeepEqual(p.Data, q.Data) {
		t.Fatal("data differs after round trip")
	}
	if q.Entry != p.Entry {
		t.Fatalf("entry %d != %d", q.Entry, p.Entry)
	}
}

func TestFormatRoundTripsCompiledPrograms(t *testing.T) {
	for seed := 0; seed < 25; seed++ {
		rng := rand.New(rand.NewSource(int64(900 + seed)))
		f := compiler.RandomFunc(rng, 2+rng.Intn(6))
		p, _, err := compiler.Compile(f, compiler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		q, err := Assemble("roundtrip", Format(p))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(p.Insts, q.Insts) {
			t.Fatalf("seed %d: instructions differ", seed)
		}
		if !reflect.DeepEqual(p.Data, q.Data) {
			t.Fatalf("seed %d: data differs", seed)
		}
		// Behaviour is identical too.
		m1, m2 := emu.New(p), emu.New(q)
		if err := m1.Run(500_000, nil); err != nil && !errors.Is(err, emu.ErrBudget) {
			t.Fatal(err)
		}
		if err := m2.Run(500_000, nil); err != nil && !errors.Is(err, emu.ErrBudget) {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m1.Outputs, m2.Outputs) {
			t.Fatalf("seed %d: outputs differ", seed)
		}
	}
}

func TestFormatNoDataSection(t *testing.T) {
	p := mustAssemble(t, "main:\n nop\n halt\n")
	src := Format(p)
	if len(src) == 0 {
		t.Fatal("empty source")
	}
	if _, err := Assemble("r", src); err != nil {
		t.Fatalf("reassemble: %v", err)
	}
}
