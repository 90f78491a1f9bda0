// Quickstart: assemble an r64 program, execute it, and ask the deadness
// oracle which dynamic instructions produced values nobody ever used.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/emu"
)

// The loop computes a running sum. The shifted value r3 is consumed only
// when the branch skips — which never happens until the very last
// iteration — so almost every instance of the slli is dynamically dead.
const src = `
main:
    addi r1, r0, 10      # i = 10
    addi r2, r0, 0       # sum = 0
loop:
    slli r3, r1, 3       # dead unless the loop is about to exit
    add  r2, r2, r1
    addi r1, r1, -1
    bne  r1, r0, loop
    add  r2, r2, r3      # the only consumer of r3
    out  r2
    halt
`

func main() {
	prog, err := asm.Assemble("quickstart", src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("assembled program:")
	fmt.Print(prog.Disassemble())

	tr, an, m, err := emu.CollectAnalyzed(prog, 100000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuted %d dynamic instructions, output = %v\n", tr.Len(), m.Outputs)

	sum := an.Summarize(tr, prog)
	fmt.Printf("dead instructions: %d of %d (%.1f%%), %d first-level / %d transitive\n",
		sum.Dead, sum.Total, 100*sum.DeadFraction(), sum.FirstLevel, sum.Transitive)

	fmt.Println("\nper-static-instruction deadness:")
	for _, st := range an.StaticProfile(tr) {
		fmt.Printf("  pc %2d  %-24v %3d executions, %3d dead (%.0f%%)\n",
			st.PC, prog.Insts[st.PC], st.Dyn, st.Dead, 100*st.Ratio())
	}
}
