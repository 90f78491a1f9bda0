// Command deadsim runs the cycle-level out-of-order pipeline over one
// benchmark (or the whole suite) and reports timing and resource
// utilization, with dead-instruction elimination off, on, or both.
// Independent (benchmark, elim-mode) runs execute concurrently through
// the workspace pool; rows print in suite order regardless of -j.
//
// Usage:
//
//	deadsim [-bench name] [-n budget] [-machine baseline|contended|deep]
//	        [-regs n] [-elim off|on|both] [-clusters 1|2] [-steer predictor]
//	        [-j workers] [-cache-dir dir] [-disk-budget bytes]
//	        [-remote-cache url] [-v]
//
// -clusters 2 reorganizes the selected machine as a full-width cluster
// plus a single-issue narrow cluster fed by the ineffectuality steering
// predictor (-steer names it; see experiments E19-E21), and the table
// gains per-cluster commit and steering columns.
//
// Profiles and machine runs derive through the workspace's
// content-addressed artifact cache; -cache-dir attaches a persistent disk
// tier shared across runs and processes (bounded by -disk-budget), and
// -remote-cache attaches a warm deadd daemon as a third tier (lookup
// order: memory, disk, remote, build), so repeated invocations load
// artifacts instead of recomputing them. The -v run summary includes the per-kind cache, disk-tier, and
// remote-tier counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name (default: whole suite)")
	machine := flag.String("machine", "contended", "baseline, contended, or deep")
	regs := flag.Int("regs", 0, "override physical register count")
	elim := flag.String("elim", "both", "off, on, or both")
	clusters := flag.Int("clusters", 1, "execution clusters: 1 (classic) or 2 (steered narrow cluster)")
	steer := flag.String("steer", "", "steering direction predictor for -clusters 2 (default "+pipeline.SteerDirDefault+")")
	wsFlags := cliflags.RegisterWorkspace(flag.CommandLine, "deadsim")
	verbose := flag.Bool("v", false, "print per-phase progress lines and a run summary to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulations to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	var cfg pipeline.Config
	switch *machine {
	case "baseline":
		cfg = pipeline.BaselineConfig()
	case "contended":
		cfg = pipeline.ContendedConfig()
	case "deep":
		cfg = pipeline.DeepMemoryConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown machine %q\n", *machine)
		os.Exit(1)
	}
	if *regs > 0 {
		cfg.PhysRegs = *regs
	}
	if *clusters == 2 {
		cfg.Clusters = 2
		cfg.NarrowIssueWidth = 1
		cfg.NarrowALUs = 1
		cfg.SteerDir = *steer
	} else if *clusters != 1 || *steer != "" {
		if *clusters != 1 {
			fmt.Fprintf(os.Stderr, "unsupported cluster count %d (1 or 2)\n", *clusters)
		} else {
			fmt.Fprintln(os.Stderr, "-steer requires -clusters 2")
		}
		os.Exit(1)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	names := core.SuiteNames()
	if *bench != "" {
		if _, err := workload.ByName(*bench); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		names = []string{*bench}
	}

	w, err := wsFlags.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mc := metrics.New()
	if *verbose {
		mc.SetVerbose(os.Stderr)
	}
	w.Metrics = mc
	if _, err := cliflags.ArmFaults(mc, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// One task per (benchmark, elim-mode) pair, fanned through the pool;
	// results land by index so the table stays in suite order.
	type task struct {
		name string
		mode string
		cfg  pipeline.Config
	}
	var tasks []task
	for _, name := range names {
		if *elim == "off" || *elim == "both" {
			tasks = append(tasks, task{name, "off", cfg})
		}
		if *elim == "on" || *elim == "both" {
			c := cfg
			c.Elim = true
			tasks = append(tasks, task{name, "on", c})
		}
	}
	if len(tasks) == 0 {
		fmt.Fprintf(os.Stderr, "unknown elim mode %q\n", *elim)
		os.Exit(1)
	}

	stopCPU, err := metrics.StartCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	results := make([]pipeline.Stats, len(tasks))
	err = w.Pool().ForEach(context.Background(), len(tasks), func(i int) error {
		st, err := w.RunMachine(tasks[i].name, tasks[i].cfg)
		results[i] = st
		return err
	})
	stopCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cols := []string{"bench", "elim", "IPC", "cycles", "allocs", "rf-reads",
		"rf-writes", "dcache", "eliminated", "recoveries", "freelist-stall"}
	if *clusters == 2 {
		cols = append(cols, "narrow", "narrow-IPC", "steer-misp")
	}
	tb := stats.NewTable(cols...)
	for i, tk := range tasks {
		st := results[i]
		row := []string{tk.name, tk.mode,
			fmt.Sprintf("%.3f", st.IPC()), fmt.Sprint(st.Cycles),
			fmt.Sprint(st.PhysAllocs), fmt.Sprint(st.RFReads), fmt.Sprint(st.RFWrites),
			fmt.Sprint(st.Cache.Accesses), fmt.Sprint(st.Eliminated),
			fmt.Sprint(st.DeadMispredicts), fmt.Sprint(st.StallFreeList)}
		if *clusters == 2 {
			row = append(row, fmt.Sprint(st.ClusterCommitted[1]),
				fmt.Sprintf("%.3f", st.ClusterIPC(1)), fmt.Sprint(st.SteerMispredicts))
		}
		tb.AddRow(row...)
	}
	fmt.Print(tb)

	if *verbose {
		mc.RecordMemStats()
		fmt.Fprintf(os.Stderr, "\n--- run summary (%d workers) ---\n", w.Pool().Workers())
		mc.WriteText(os.Stderr)
	}
	if err := metrics.WriteHeapProfile(*memprofile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
