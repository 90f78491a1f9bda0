// Callconv: show calling-convention overhead as a dead-instruction source.
// A caller saves two registers around a subroutine call and restores them
// afterwards; on the path where the caller immediately overwrites a
// restored register, that restore (and transitively its save) is
// dynamically dead. The deadness oracle attributes these instances to
// their provenance, reproducing the paper's observation that convention
// code contributes to the dead-instruction population.
//
//	go run ./examples/callconv
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/workload"
)

func main() {
	// parser is the suite's most call-heavy benchmark.
	prof, err := workload.ByName("parser")
	if err != nil {
		log.Fatal(err)
	}
	prog, _, err := prof.Compile(nil)
	if err != nil {
		log.Fatal(err)
	}
	tr, an, _, err := emu.CollectAnalyzed(prog, core.DefaultBudget)
	if err != nil {
		log.Fatal(err)
	}
	s := an.Summarize(tr, prog)
	fmt.Printf("benchmark %s: %d dynamic instructions, %d dead (%.1f%%)\n\n",
		prof.Name, s.Total, s.Dead, 100*s.DeadFraction())

	fmt.Println("dead instances by compiler-level cause:")
	for prov := program.Provenance(0); int(prov) < program.NumProvenances; prov++ {
		pc := s.ByProv[prov]
		if pc.Dyn == 0 {
			continue
		}
		fmt.Printf("  %-12v %8d dead of %8d instances (%.1f%% dead)\n",
			prov, pc.Dead, pc.Dyn, 100*float64(pc.Dead)/float64(pc.Dyn))
	}

	saves := s.ByProv[program.ProvCallSave]
	restores := s.ByProv[program.ProvCallRestore]
	fmt.Printf("\ncalling convention: %d of %d saves and %d of %d restores are dead\n",
		saves.Dead, saves.Dyn, restores.Dead, restores.Dyn)

	// The dead restores are partially dead: the same static restore is
	// useful whenever the caller does not overwrite the register.
	partial := 0
	for _, st := range an.StaticProfile(tr) {
		if prog.ProvenanceOf(st.PC) == program.ProvCallRestore && st.Dead < st.Dyn {
			partial++
		}
	}
	fmt.Printf("dead-producing restore statics that are PARTIALLY dead: %d\n", partial)

	dist := an.ResolveDistances(true)
	fmt.Printf("\ndeadness outcomes resolve quickly: median %d instructions, %.1f%% within a ROB\n",
		dist.P50, 100*dist.WithinROB)
}
