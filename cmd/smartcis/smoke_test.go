package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"aspen/internal/testproc"
)

// TestSmokeFrames runs the built command with its default flags and compares
// its stdout byte for byte with testdata/frames.golden: the scenario is
// deterministic, and every frame repaints from the standing queries'
// materialized results, so a change in what a result holds or how its
// snapshot orders shows up here. With -snapshot the command also saves the
// coordinator snapshot, and exits 0.
func TestSmokeFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches the command")
	}
	bin := testproc.Build(t, "aspen/cmd/smartcis")
	golden, err := os.ReadFile(filepath.Join("testdata", "frames.golden"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) []byte {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("smartcis %v: %v\n%s", args, err, stderr.Bytes())
		}
		return stdout.Bytes()
	}
	if got := run(); !bytes.Equal(got, golden) {
		t.Fatalf("stdout differs from testdata/frames.golden:\n%s", got)
	}

	snap := filepath.Join(t.TempDir(), "smartcis.snap")
	got := run("-snapshot", snap)
	if !bytes.HasPrefix(got, golden) || !bytes.HasSuffix(got, []byte("coordinator snapshot saved to "+snap+"\n")) {
		t.Fatalf("-snapshot run printed:\n%s", got)
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot file: %v, %v", fi, err)
	}
}
