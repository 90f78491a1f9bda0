package deadness_test

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/deadness"
	"repro/internal/emu"
)

// Example walks the whole trace-level flow: assemble a program in which
// one value is overwritten before use, run it, and ask the oracle.
func Example() {
	prog, err := asm.Assemble("example", `
main:
    addi r1, r0, 1    # dead: overwritten before any read
    addi r1, r0, 2
    out  r1
    halt
`)
	if err != nil {
		log.Fatal(err)
	}
	tr, an, _, err := emu.CollectAnalyzed(prog, 1000)
	if err != nil {
		log.Fatal(err)
	}
	for seq := 0; seq < tr.Len(); seq++ {
		fmt.Printf("%-16v %v\n", prog.Insts[tr.PCAt(seq)], an.Facts[seq].Kind())
	}
	// Output:
	// addi r1, r0, 1   first-level
	// addi r1, r0, 2   live
	// out r1           live
	// halt             live
}

func ExampleComputeLocality() {
	profile := []deadness.StaticStat{
		{PC: 4, Dyn: 100, Dead: 90},
		{PC: 9, Dyn: 100, Dead: 10},
	}
	loc := deadness.ComputeLocality(profile, []int{1, 2})
	fmt.Printf("top-1 covers %.0f%%, %d partially dead statics\n",
		100*loc.CoverageAt[0], loc.PartiallyDeadStatics)
	// Output: top-1 covers 90%, 2 partially dead statics
}
