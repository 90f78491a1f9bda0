// Scheduling: demonstrate the paper's claim that compiler instruction
// scheduling *creates* partially dead instructions. The same IR is
// compiled twice — with and without speculative hoisting — and the dead
// fractions and per-provenance attribution are compared.
//
//	go run ./examples/scheduling
package main

import (
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/workload"
)

func main() {
	prof, err := workload.ByName("crafty")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("benchmark: crafty (branchy, diamond-heavy synthetic)")
	withHoist := prof.Opts
	noHoist := prof.Opts
	noHoist.MaxHoist = 0

	for _, cfg := range []struct {
		name string
		opts compiler.Options
	}{
		{"scheduler ON ", withHoist},
		{"scheduler OFF", noHoist},
	} {
		prog, passes, err := prof.Compile(&cfg.opts)
		if err != nil {
			log.Fatal(err)
		}
		tr, an, _, err := emu.CollectAnalyzed(prog, 500_000)
		if err != nil {
			log.Fatal(err)
		}
		s := an.Summarize(tr, prog)
		fmt.Printf("\n%s  (%d instructions hoisted above branches)\n", cfg.name, passes.Hoisted)
		fmt.Printf("  dynamic instructions: %d\n", s.Total)
		fmt.Printf("  dead:                 %d (%.1f%%)\n", s.Dead, 100*s.DeadFraction())
		fmt.Printf("  dead by cause:\n")
		for prov := program.Provenance(0); int(prov) < program.NumProvenances; prov++ {
			pc := s.ByProv[prov]
			if pc.Dyn == 0 {
				continue
			}
			fmt.Printf("    %-8v %8d dead of %8d instances (%.1f%%)\n",
				prov, pc.Dead, pc.Dyn, 100*float64(pc.Dead)/float64(pc.Dyn))
		}
	}

	fmt.Println("\nThe hoisted instructions execute on both branch paths but are")
	fmt.Println("useful on one — exactly the partially dead instructions the paper")
	fmt.Println("attributes to compile-time code motion.")
}
