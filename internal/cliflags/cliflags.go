// Package cliflags factors the workspace-construction flags every tool
// shares — the worker count and the persistent disk and remote artifact
// tiers — so the binaries register one consistent flag surface and build
// their workspace the same way. It also centralizes arming the FAULTS
// environment injector so a typo'd rule fails loudly at startup in every
// tool, not just the ones that remembered to check.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bytesize"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
)

// WorkspaceFlags holds the parsed values of the shared workspace flags.
// Register it on a FlagSet before Parse; call Open after.
type WorkspaceFlags struct {
	tool string

	Budget      int
	Workers     int
	CacheDir    string
	DiskBudget  string
	RemoteCache string
}

// RegisterWorkspace registers the shared workspace flags on fs:
// -n, -j, -cache-dir, -disk-budget, and -remote-cache.
// The tool name prefixes every error Open reports.
func RegisterWorkspace(fs *flag.FlagSet, tool string) *WorkspaceFlags {
	f := &WorkspaceFlags{tool: tool}
	fs.IntVar(&f.Budget, "n", core.DefaultBudget, "per-benchmark dynamic instruction budget")
	fs.IntVar(&f.Workers, "j", 0, "max concurrently executing heavy tasks (0 = GOMAXPROCS)")
	fs.StringVar(&f.CacheDir, "cache-dir", "", "persistent artifact-cache directory shared across runs (empty = memory only)")
	fs.StringVar(&f.DiskBudget, "disk-budget", "", "disk byte budget for -cache-dir, e.g. 1GiB (empty or 0 = unlimited)")
	fs.StringVar(&f.RemoteCache, "remote-cache", "", "base URL of a deadd daemon to use as a remote artifact tier, e.g. http://host:8080 (empty = none)")
	return f
}

// Open validates the flag values and builds the workspace they describe:
// a budget of at least one instruction and a worker count of at least 0,
// the disk budget parsed with binary suffixes, the disk tier attached when
// -cache-dir is set, and a warm deadd daemon attached as the read-only
// remote artifact tier when -remote-cache is set (lookup order: memory,
// disk, remote, build). Errors carry the tool name so they read as usage
// errors when printed bare.
func (f *WorkspaceFlags) Open() (*core.Workspace, error) {
	if f.Budget < 1 {
		return nil, fmt.Errorf("%s: -n %d: must be at least 1", f.tool, f.Budget)
	}
	if f.Workers < 0 {
		return nil, fmt.Errorf("%s: -j %d: must be at least 0 (0 = GOMAXPROCS)", f.tool, f.Workers)
	}
	diskBytes, err := bytesize.Parse(f.DiskBudget)
	if err != nil {
		return nil, fmt.Errorf("%s: -disk-budget: %w", f.tool, err)
	}
	if f.CacheDir == "" && diskBytes != 0 {
		return nil, fmt.Errorf("%s: -disk-budget requires -cache-dir", f.tool)
	}
	w := core.NewWorkspaceWorkers(f.Budget, f.Workers)
	if f.CacheDir != "" {
		if err := w.OpenDiskCache(f.CacheDir, diskBytes); err != nil {
			return nil, fmt.Errorf("%s: %w", f.tool, err)
		}
	}
	if f.RemoteCache != "" {
		rc, err := client.New(f.RemoteCache)
		if err != nil {
			return nil, fmt.Errorf("%s: -remote-cache: %w", f.tool, err)
		}
		w.SetRemoteTier(rc)
	}
	return w, nil
}

// ArmFaults reads the FAULTS / FAULTS_SEED environment, arms the global
// injector, and reports the armed sites on report (nil = os.Stderr). A
// malformed spec — including an unknown site name — is returned as an
// error quoting the offending rule, so a typo fails the tool at startup
// instead of silently never firing. Returns whether an injector was
// armed.
func ArmFaults(mc *metrics.Collector, report io.Writer) (bool, error) {
	inj, err := faults.FromEnv()
	if err != nil {
		return false, err
	}
	if inj == nil {
		return false, nil
	}
	inj.Metrics = mc
	faults.Set(inj)
	if report == nil {
		report = os.Stderr
	}
	fmt.Fprintf(report, "fault injection armed at %d site(s) via $%s\n",
		len(inj.Sites()), faults.EnvSpec)
	return true, nil
}
