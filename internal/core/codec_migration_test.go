package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifact"
)

// downgradeProfileEntry rewrites the single persisted profile entry under
// dir as if a previous-generation writer had produced it: the JSON
// header's Version field is patched back one generation and the payload
// re-framed with a correct CRC. The result is a fully intact,
// checksum-valid entry in an outdated format — exactly what a cache
// directory holds after a codec upgrade, and a different failure class
// from bit-rot corruption.
func downgradeProfileEntry(t *testing.T, dir string) {
	t.Helper()
	patchProfileHeader(t, dir,
		fmt.Sprintf(`"Version":%d`, profileCodecVersion),
		fmt.Sprintf(`"Version":%d`, profileCodecVersion-1))
}

// patchProfileHeader replaces from with to, which must be as long, in the
// JSON header of the single persisted profile entry under dir, and
// re-frames the payload with a correct CRC.
func patchProfileHeader(t *testing.T, dir, from, to string) {
	t.Helper()
	profDir := filepath.Join(dir, string(KindProfile))
	files, err := os.ReadDir(profDir)
	if err != nil || len(files) != 1 {
		t.Fatalf("profile dir: %v (%d files)", err, len(files))
	}
	path := filepath.Join(profDir, files[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := artifact.Unframe(raw)
	if err != nil {
		t.Fatalf("current entry does not unframe: %v", err)
	}
	hlen, hn := binary.Uvarint(payload)
	if hn <= 0 || hn+int(hlen) > len(payload) {
		t.Fatal("current entry has a malformed header length")
	}
	// Both strings are the same length, so the header (and the uvarint
	// prefix) keep their size and the patch is purely in place.
	if len(from) != len(to) {
		t.Fatalf("patch %q -> %q changes the header length", from, to)
	}
	hdr := payload[hn : hn+int(hlen)]
	patched := bytes.Replace(hdr, []byte(from), []byte(to), 1)
	if bytes.Equal(patched, hdr) {
		t.Fatalf("header %q carries no %s", hdr, from)
	}
	copy(hdr, patched)
	if err := os.WriteFile(path, artifact.Frame(payload), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestProfileEntryStaleVersionRebuilds is the codec-migration contract: a
// checksum-valid entry the decoder rejects — written by an older codec
// generation, or naming no suite benchmark — is *stale*, not corrupt. A
// warm start must silently delete it and rebuild through the ordinary
// miss path, never surface a corruption error, and leave a current
// entry behind for the next warm start to hit.
func TestProfileEntryStaleVersionRebuilds(t *testing.T) {
	for _, tc := range []struct{ name, from, to string }{
		{"older-version",
			fmt.Sprintf(`"Version":%d`, profileCodecVersion),
			fmt.Sprintf(`"Version":%d`, profileCodecVersion-1)},
		{"unknown-bench", `"Bench":"gzip"`, `"Bench":"gzop"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			bench := "gzip"
			cold := diskWorkspace(t, dir)
			coldProf, err := cold.ProfileOf(bench)
			if err != nil {
				t.Fatal(err)
			}
			patchProfileHeader(t, dir, tc.from, tc.to)

			warm := diskWorkspace(t, dir)
			warmProf, err := warm.ProfileOf(bench)
			if err != nil {
				t.Fatalf("warm start over a stale entry failed: %v", err)
			}
			if !reflect.DeepEqual(warmProf.Summary, coldProf.Summary) {
				t.Error("rebuilt profile differs from original")
			}
			ws := warm.ArtifactStats().Kinds[KindProfile]
			if ws.VerifyFailures != 1 || ws.Misses != 1 || ws.DiskWrites != 1 {
				t.Errorf("stale-entry stats = %+v, want one verify failure + rebuild + re-persist", ws)
			}

			// The rebuild must have left a current entry: a third
			// workspace warm-starts with zero builds.
			fresh := diskWorkspace(t, dir)
			if _, err := fresh.ProfileOf(bench); err != nil {
				t.Fatal(err)
			}
			fs := fresh.ArtifactStats().Kinds[KindProfile]
			if fs.Misses != 0 || fs.DiskHits != 1 {
				t.Errorf("post-migration stats = %+v, want pure disk hit", fs)
			}
		})
	}
}

// TestProfileStaleEntryCrossProcess drives the migration across real
// process boundaries: after the entry is downgraded, a re-exec'd child
// process and the parent race to warm-start the same cache directory.
// Whichever order the scheduler picks, both must produce the original
// profile — the loser of the rebuild race either rebuilds again or hits
// the winner's re-persisted entry; neither may see corruption.
func TestProfileStaleEntryCrossProcess(t *testing.T) {
	bench := "gzip"
	if dir := os.Getenv("CORE_STALE_PROFILE_CHILD"); dir != "" {
		w := diskWorkspace(t, dir)
		prof, err := w.ProfileOf(bench)
		if err != nil {
			t.Fatalf("child warm start: %v", err)
		}
		sum, err := json.Marshal(prof.Summary)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("CHILD_SUMMARY %s\n", sum)
		return
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot find test binary: %v", err)
	}
	dir := t.TempDir()
	cold := diskWorkspace(t, dir)
	coldProf, err := cold.ProfileOf(bench)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := json.Marshal(coldProf.Summary)
	if err != nil {
		t.Fatal(err)
	}
	downgradeProfileEntry(t, dir)

	cmd := exec.Command(exe, "-test.run", "^TestProfileStaleEntryCrossProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "CORE_STALE_PROFILE_CHILD="+dir)
	childOut := make(chan struct {
		out []byte
		err error
	}, 1)
	go func() {
		out, err := cmd.CombinedOutput()
		childOut <- struct {
			out []byte
			err error
		}{out, err}
	}()

	// Parent warm-starts concurrently with the child.
	warm := diskWorkspace(t, dir)
	warmProf, err := warm.ProfileOf(bench)
	if err != nil {
		t.Fatalf("parent warm start: %v", err)
	}
	if !reflect.DeepEqual(warmProf.Summary, coldProf.Summary) {
		t.Error("parent rebuilt profile differs from original")
	}

	child := <-childOut
	if child.err != nil {
		t.Fatalf("child failed: %v\n%s", child.err, child.out)
	}
	var childSum string
	for _, line := range strings.Split(string(child.out), "\n") {
		if rest, ok := strings.CutPrefix(line, "CHILD_SUMMARY "); ok {
			childSum = rest
			break
		}
	}
	if childSum == "" {
		t.Fatalf("no CHILD_SUMMARY line in child output:\n%s", child.out)
	}
	if childSum != string(wantSum) {
		t.Errorf("child summary %s\nwant %s", childSum, wantSum)
	}
}
