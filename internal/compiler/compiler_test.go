package compiler

import (
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
)

// sumFunc builds: for i = n..1 { acc += i }; out acc.
func sumFunc(n int64) *Func {
	f := NewFunc("sum")
	entry := f.NewBlock() // 0
	loop := f.NewBlock()  // 1
	exit := f.NewBlock()  // 2

	i := f.NewVReg()
	acc := f.NewVReg()
	zero := f.NewVReg()
	entry.Append(Instr{Kind: KConst, Dst: i, Imm: n})
	entry.Append(Instr{Kind: KConst, Dst: acc, Imm: 0})
	entry.Append(Instr{Kind: KConst, Dst: zero, Imm: 0})
	entry.Term = Terminator{Kind: TJump, To: loop.ID}

	loop.Append(Instr{Kind: KALU, Op: isa.ADD, Dst: acc, A: acc, B: i})
	loop.Append(Instr{Kind: KALUImm, Op: isa.ADDI, Dst: i, A: i, Imm: -1})
	loop.Term = Terminator{Kind: TBranch, Op: isa.BNE, A: i, B: zero, To: loop.ID, Else: exit.ID}

	exit.Append(Instr{Kind: KOut, A: acc})
	return f
}

// diamondFunc builds an if/else whose then-side computes an extra value:
//
//	t = a * 3
//	if a < b { x = t + 1 } else { x = a }
//	out x
func diamondFunc() *Func {
	f := NewFunc("diamond")
	entry := f.NewBlock()
	then := f.NewBlock()
	els := f.NewBlock()
	join := f.NewBlock()

	a := f.NewVReg()
	b := f.NewVReg()
	t := f.NewVReg()
	x := f.NewVReg()
	entry.Append(Instr{Kind: KConst, Dst: a, Imm: 5})
	entry.Append(Instr{Kind: KConst, Dst: b, Imm: 9})
	entry.Term = Terminator{Kind: TBranch, Op: isa.BLT, A: a, B: b, To: then.ID, Else: els.ID}

	then.Append(Instr{Kind: KALUImm, Op: isa.SLLI, Dst: t, A: a, Imm: 1})
	then.Append(Instr{Kind: KALU, Op: isa.ADD, Dst: x, A: t, B: a})
	then.Term = Terminator{Kind: TJump, To: join.ID}

	els.Append(Instr{Kind: KALUImm, Op: isa.ADDI, Dst: x, A: a, Imm: 0})
	els.Term = Terminator{Kind: TJump, To: join.ID}

	join.Append(Instr{Kind: KOut, A: x})
	return f
}

// memFunc builds: store 3 values to data, load them back summed.
func memFunc() *Func {
	f := NewFunc("mem")
	f.Data = make([]byte, 64)
	b := f.NewBlock()
	base := f.NewVReg()
	v := f.NewVReg()
	sum := f.NewVReg()
	tmp := f.NewVReg()
	b.Append(Instr{Kind: KConst, Dst: base, Imm: int64(program.DataBase)})
	b.Append(Instr{Kind: KConst, Dst: sum, Imm: 0})
	for k := int64(0); k < 3; k++ {
		b.Append(Instr{Kind: KConst, Dst: v, Imm: 10 + k})
		b.Append(Instr{Kind: KStore, Op: isa.SD, A: base, B: v, Imm: 8 * k})
	}
	for k := int64(0); k < 3; k++ {
		b.Append(Instr{Kind: KLoad, Op: isa.LD, Dst: tmp, A: base, Imm: 8 * k})
		b.Append(Instr{Kind: KALU, Op: isa.ADD, Dst: sum, A: sum, B: tmp})
	}
	b.Append(Instr{Kind: KOut, A: sum})
	return f
}

// runCompiled compiles and executes on the emulator, returning outputs.
func runCompiled(t *testing.T, f *Func, opts Options) []uint64 {
	t.Helper()
	p, _, err := Compile(f, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := emu.New(p)
	if err := m.Run(10_000_000, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m.Outputs
}

// checkEquiv verifies interpreter and compiled outputs agree under the
// given options.
func checkEquiv(t *testing.T, f *Func, opts Options) []uint64 {
	t.Helper()
	want, err := Interpret(f, 10_000_000)
	if err != nil {
		t.Fatalf("interpret: %v", err)
	}
	got := runCompiled(t, f, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("outputs differ under %+v:\n got %v\nwant %v", opts, got, want)
	}
	return got
}

func allOptionSets() []Options {
	return []Options{
		{},                                      // -O0
		{MaxHoist: 3},                           // hoist only
		{MaxLICM: 8},                            // licm only
		DefaultOptions(),                        // both
		{MaxHoist: 3, MaxLICM: 8, NumRegs: 3},   // heavy spills
		{MaxHoist: 10, MaxLICM: 20, NumRegs: 4}, // aggressive + spills
	}
}

func TestSumCompiles(t *testing.T) {
	out := checkEquiv(t, sumFunc(10), Options{})
	if len(out) != 1 || out[0] != 55 {
		t.Fatalf("sum(10) = %v, want [55]", out)
	}
}

func TestEquivalenceAcrossOptionSets(t *testing.T) {
	funcs := map[string]*Func{
		"sum":     sumFunc(100),
		"diamond": diamondFunc(),
		"mem":     memFunc(),
	}
	for name, f := range funcs {
		for _, opts := range allOptionSets() {
			t.Run(name, func(t *testing.T) {
				checkEquiv(t, f, opts)
			})
		}
	}
}

func TestInterpretBudget(t *testing.T) {
	f := NewFunc("spin")
	b := f.NewBlock()
	b.Term = Terminator{Kind: TJump, To: b.ID}
	if _, err := Interpret(f, 100); err != ErrInterpBudget {
		t.Fatalf("err = %v, want budget error", err)
	}
}

func TestValidateCatchesBadIR(t *testing.T) {
	f := NewFunc("bad")
	b := f.NewBlock()
	b.Append(Instr{Kind: KALU, Op: isa.ADD, Dst: 0, A: 0, B: 0}) // unallocated vregs
	if err := f.Validate(); err == nil {
		t.Error("unallocated vregs accepted")
	}

	f2 := NewFunc("bad2")
	b2 := f2.NewBlock()
	v := f2.NewVReg()
	b2.Append(Instr{Kind: KALU, Op: isa.ADDI, Dst: v, A: v, B: v}) // imm op as KALU
	if err := f2.Validate(); err == nil {
		t.Error("mismatched op kind accepted")
	}

	f3 := NewFunc("bad3")
	b3 := f3.NewBlock()
	b3.Term = Terminator{Kind: TJump, To: 99}
	if err := f3.Validate(); err == nil {
		t.Error("out-of-range jump accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := sumFunc(5)
	g := f.Clone()
	g.Blocks[0].Instrs[0].Imm = 999
	g.Blocks[0].Prov[0] = program.ProvHoisted
	if f.Blocks[0].Instrs[0].Imm == 999 {
		t.Error("instruction slice shared")
	}
	if f.Blocks[0].Prov[0] == program.ProvHoisted {
		t.Error("provenance slice shared")
	}
}

func TestCompileDoesNotMutateInput(t *testing.T) {
	f := diamondFunc()
	before := len(f.Blocks[1].Instrs)
	if _, _, err := Compile(f, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks[1].Instrs) != before {
		t.Error("Compile mutated its input function")
	}
}
