package workload_test

import (
	"fmt"
	"log"

	"repro/internal/emu"
	"repro/internal/workload"
)

// Example builds one suite benchmark, compiles it through the full
// optimization pipeline, and runs it to completion on the emulator.
func Example() {
	prof, err := workload.ByName("vpr")
	if err != nil {
		log.Fatal(err)
	}
	prog, passes, err := prof.Compile(nil)
	if err != nil {
		log.Fatal(err)
	}
	m := emu.New(prog)
	if err := m.Run(2_000_000, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Println("halted:", m.Halted)
	fmt.Println("scheduler hoisted something:", passes.Hoisted > 0)
	fmt.Println("register allocator spilled something:", passes.Spilled > 0)
	fmt.Println("deterministic first output:", m.Outputs[0] == 0xfffffffc704c7390)
	// Output:
	// halted: true
	// scheduler hoisted something: true
	// register allocator spilled something: true
	// deterministic first output: true
}
