// Predictor: train and evaluate the dead-instruction predictor on one
// benchmark, comparing three designs at the same table geometry:
//
//   - the paper's control-flow-informed predictor (path signatures built
//     from the branch predictor's lookahead);
//   - a per-PC confidence counter with no future control flow;
//   - the CFI predictor fed oracle (actual) future directions.
//
// go run ./examples/predictor [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/dip"
	"repro/internal/emu"
	"repro/internal/workload"
)

func main() {
	name := "twolf"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	prof, err := workload.ByName(name)
	if err != nil {
		log.Fatal(err)
	}
	prog, _, err := prof.Compile(nil)
	if err != nil {
		log.Fatal(err)
	}
	tr, an, _, err := emu.CollectAnalyzed(prog, 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	sum := an.Summarize(tr, prog)
	fmt.Printf("benchmark %s: %d dynamic instructions, %d dead (%.1f%%)\n\n",
		name, sum.Total, sum.Dead, 100*sum.DeadFraction())

	cfi := dip.DefaultConfig()
	counter := dip.DefaultConfig()
	counter.PathLen = 0

	rows := []struct {
		label string
		opt   dip.Options
	}{
		{"CFI (predicted future paths)", dip.Options{Config: cfi}},
		{"counter (no control flow)   ", dip.Options{Config: counter}},
		{"CFI (oracle future paths)   ", dip.Options{Config: cfi, UseActualPath: true}},
	}
	for _, row := range rows {
		r, err := dip.Evaluate(tr, an, row.opt)
		if err != nil {
			fmt.Println("evaluate:", err)
			return
		}
		fmt.Printf("%s  %.2f KB  coverage %5.1f%%  accuracy %5.1f%%  (%d false positives)\n",
			row.label, row.opt.Config.StateKB(),
			100*r.Coverage(), 100*r.Accuracy(), r.FalsePositives())
	}

	fmt.Println("\nThe counter cannot tell useful from useless instances of the same")
	fmt.Println("static instruction; the path signature separates them, and actual")
	fmt.Println("future directions bound what better branch prediction would buy.")
}
