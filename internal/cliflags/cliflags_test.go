package cliflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/faults"
)

func newFlagSet(t *testing.T, args ...string) *WorkspaceFlags {
	t.Helper()
	fs := flag.NewFlagSet("testtool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterWorkspace(fs, "testtool")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

func TestOpenDefaults(t *testing.T) {
	f := newFlagSet(t)
	w, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("nil workspace")
	}
}

func TestOpenDiskTier(t *testing.T) {
	dir := t.TempDir()
	f := newFlagSet(t, "-cache-dir", dir, "-disk-budget", "4MiB", "-j", "2")
	w, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	if got := w.ArtifactStats().DiskBudgetBytes; got != 4<<20 {
		t.Errorf("disk tier budget = %d, want 4MiB", got)
	}
	if got := w.Pool().Workers(); got != 2 {
		t.Errorf("workers = %d, want 2", got)
	}
}

func TestOpenRemoteTier(t *testing.T) {
	f := newFlagSet(t, "-remote-cache", "http://127.0.0.1:7311")
	w, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	if !w.RemoteTierAttached() {
		t.Error("remote tier not attached with -remote-cache set")
	}
	if w2, err := newFlagSet(t).Open(); err != nil || w2.RemoteTierAttached() {
		t.Errorf("remote tier attached without -remote-cache (err %v)", err)
	}
}

func TestOpenErrorsCarryToolName(t *testing.T) {
	cases := [][]string{
		{"-disk-budget", "12zz"},
		{"-disk-budget", "1MiB"}, // without -cache-dir
		{"-remote-cache", "ftp://nope"},
		{"-remote-cache", ":::"},
	}
	for _, args := range cases {
		f := newFlagSet(t, args...)
		if _, err := f.Open(); err == nil {
			t.Errorf("args %v: no error", args)
		} else if !strings.Contains(err.Error(), "testtool") {
			t.Errorf("args %v: error %q lacks tool name", args, err)
		}
	}
}

func TestArmFaults(t *testing.T) {
	t.Cleanup(func() { faults.Set(nil) })

	t.Setenv(faults.EnvSpec, "")
	if armed, err := ArmFaults(nil, io.Discard); err != nil || armed {
		t.Errorf("empty spec: armed=%v err=%v", armed, err)
	}

	t.Setenv(faults.EnvSpec, "pool.task:transient:0.1")
	armed, err := ArmFaults(nil, io.Discard)
	if err != nil || !armed {
		t.Fatalf("valid spec: armed=%v err=%v", armed, err)
	}
	faults.Set(nil)

	// A typo'd site name must fail arming with the rule quoted, so every
	// tool that routes through ArmFaults surfaces it at startup.
	const bad = "pool.tsk:transient:0.1"
	t.Setenv(faults.EnvSpec, bad)
	if _, err := ArmFaults(nil, io.Discard); err == nil {
		t.Fatal("typo'd site accepted")
	} else if !strings.Contains(err.Error(), `"`+bad+`"`) {
		t.Errorf("error %q does not quote the offending rule", err)
	}
}
