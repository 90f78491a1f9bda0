package pipeline_test

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/pipeline"
)

// Example runs the machine over a loop with an always-dead instruction,
// once without and once with dead-instruction elimination.
func Example() {
	prog, err := asm.Assemble("example", `
main:
    addi r1, r0, 1000
loop:
    slli r3, r1, 2     # dead every iteration
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r1
    halt
`)
	if err != nil {
		log.Fatal(err)
	}
	tr, an, _, err := emu.CollectAnalyzed(prog, 100000)
	if err != nil {
		log.Fatal(err)
	}

	// Starve the register file so renaming is the bottleneck.
	cfg := pipeline.ContendedConfig()
	cfg.PhysRegs = 38
	base, err := pipeline.Run(tr, an, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Elim = true
	elim, err := pipeline.Run(tr, an, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("all instructions commit:", elim.Committed == base.Committed)
	fmt.Println("eliminated most dead shifts:", elim.Eliminated > 900)
	fmt.Println("fewer register allocations:", elim.PhysAllocs < base.PhysAllocs)
	fmt.Println("fewer rename stalls:", elim.StallFreeList < base.StallFreeList)
	// Output:
	// all instructions commit: true
	// eliminated most dead shifts: true
	// fewer register allocations: true
	// fewer rename stalls: true
}
