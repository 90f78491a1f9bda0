// Command deadprof prints the trace-level deadness profile of one
// benchmark or the whole suite: dead-instruction fraction, first-level vs
// transitive breakdown, per-cause attribution, and static locality.
// Profiles build concurrently through a workspace pool; rows print in
// suite order regardless of -j.
//
// The tables read only a profile's facts (summary, locality, mix), which
// derive through the workspace's content-addressed artifact cache:
// -cache-dir attaches a persistent disk tier shared across runs and
// processes, and
// -remote-cache attaches a warm deadd daemon as a third tier (lookup
// order: memory, disk, remote, build), so a repeated invocation loads
// the facts instead of re-emulating and decodes no trace (use
// -artifacts to see the hit/miss/disk/remote counters proving it).
//
// Usage:
//
//	deadprof [-bench name] [-n budget] [-hoist n] [-licm n] [-regs n]
//	         [-locality] [-mix] [-j workers] [-cache-dir dir]
//	         [-disk-budget bytes] [-remote-cache url] [-artifacts]
//
// Exit codes: 0 success, 1 failed run, 2 bad usage or environment (a
// flag value, $FAULTS, or a -cpuprofile file that cannot be created).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name (default: whole suite)")
	hoist := flag.Int("hoist", -1, "override scheduler hoisting limit (-1 = profile default)")
	licm := flag.Int("licm", -1, "override LICM limit (-1 = profile default)")
	regs := flag.Int("regs", -1, "override allocatable registers (-1 = profile default)")
	locality := flag.Bool("locality", false, "print static locality details")
	mix := flag.Bool("mix", false, "print the dynamic instruction-class mix instead")
	wsFlags := cliflags.RegisterWorkspace(flag.CommandLine, "deadprof")
	artStats := flag.Bool("artifacts", false, "print the artifact-cache counter snapshot (JSON) to stderr at exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the profiling runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	profiles := workload.Suite()
	if *bench != "" {
		p, err := workload.ByName(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		profiles = []workload.Profile{p}
	}

	w, err := wsFlags.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if _, err := cliflags.ArmFaults(nil, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stopCPU, err := metrics.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx := context.Background()
	rows := make([]core.ProfileFacts, len(profiles))
	err = w.Pool().ForEach(ctx, len(profiles), func(i int) error {
		p := profiles[i]
		// No override leaves opts nil, so the facts artifact (in memory and
		// on disk) is the same one the experiments derive.
		var opts *compiler.Options
		if *hoist >= 0 || *licm >= 0 || *regs >= 0 {
			o := p.Opts
			if *hoist >= 0 {
				o.MaxHoist = *hoist
			}
			if *licm >= 0 {
				o.MaxLICM = *licm
			}
			if *regs >= 0 {
				o.NumRegs = *regs
			}
			opts = &o
		}
		f, err := w.Facts(ctx, p.Name, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		rows[i] = f
		return nil
	})
	stopCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := metrics.WriteHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}()
	if *artStats {
		defer func() {
			enc := json.NewEncoder(os.Stderr)
			enc.SetIndent("", "  ")
			enc.Encode(w.ArtifactStats())
		}()
	}

	if *mix {
		printMix(profiles, rows)
		return
	}

	tb := stats.NewTable("bench", "dyn", "dead%", "first%", "trans%",
		"alu", "loads", "stores", "hoist-dead", "spill-dead", "statics")
	for i, p := range profiles {
		s := rows[i].Summary
		loc := rows[i].Locality
		tb.AddRow(p.Name,
			fmt.Sprint(s.Total),
			stats.Pct(s.DeadFraction()),
			stats.Pct(frac(s.FirstLevel, s.Dead)),
			stats.Pct(frac(s.Transitive, s.Dead)),
			fmt.Sprint(s.DeadALU),
			fmt.Sprint(s.DeadLoads),
			fmt.Sprint(s.DeadStores),
			fmt.Sprint(s.ByProv[program.ProvHoisted].Dead),
			fmt.Sprint(s.ByProv[program.ProvSpill].Dead+s.ByProv[program.ProvReload].Dead),
			fmt.Sprint(loc.DeadStatics),
		)
		if *locality {
			fmt.Printf("%s locality: %d dead statics, %.1f%% of dead from partially dead statics\n",
				p.Name, loc.DeadStatics, 100*loc.DeadFromPartial)
			for i, pt := range loc.CoveragePoints {
				fmt.Printf("  top %4d statics cover %.1f%% of dead instances\n",
					pt, 100*loc.CoverageAt[i])
			}
		}
	}
	fmt.Print(tb)
}

// printMix emits the suite characterization table: dynamic instruction
// class distribution and branch behaviour.
func printMix(profiles []workload.Profile, rows []core.ProfileFacts) {
	tb := stats.NewTable("bench", "dyn", "alu%", "muldiv%", "load%", "store%",
		"branch%", "taken%", "jump%")
	for i, p := range profiles {
		m := rows[i].Mix
		tb.AddRow(p.Name, fmt.Sprint(m.Total),
			stats.Pct(m.Fraction(m.ALU)), stats.Pct(m.Fraction(m.MulDiv)),
			stats.Pct(m.Fraction(m.Loads)), stats.Pct(m.Fraction(m.Stores)),
			stats.Pct(m.Fraction(m.Branches)), stats.Pct(m.TakenRate()),
			stats.Pct(m.Fraction(m.Jumps)))
	}
	fmt.Print(tb)
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
