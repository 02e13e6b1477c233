package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"aspen/internal/experiments"
	"aspen/internal/testproc"
)

// TestSmokeBenchharness runs the built command: E1 prints exactly its
// section of testdata/tables.golden (the file make tables-check diffs), an
// unknown ID exits 2 naming only the experiments there are, and -json
// writes the selected tables.
func TestSmokeBenchharness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches the command")
	}
	bin := testproc.Build(t, "aspen/cmd/benchharness")
	run := func(args ...string) (stdout, stderr []byte, err error) {
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.Bytes(), e.Bytes(), err
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "tables.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var section []byte
	for _, s := range bytes.SplitAfter(golden, []byte("\n\n")) {
		if bytes.HasPrefix(s, []byte("== E1:")) {
			section = s
		}
	}
	if section == nil {
		t.Fatal("testdata/tables.golden has no E1 section")
	}
	if out, stderr, err := run("E1"); err != nil || !bytes.Equal(out, section) {
		t.Fatalf("E1: %v\n%s\nstdout differs from the golden section:\n%s", err, stderr, out)
	}

	_, stderr, err := run("E7")
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("E7 exited with %v, want status 2", err)
	}
	if want := "unknown experiment \"E7\" (have E1, E2, E3, E4, E5, E6, E8, E9, E10)\n"; string(stderr) != want {
		t.Fatalf("E7 printed %q, want %q", stderr, want)
	}

	path := filepath.Join(t.TempDir(), "tables.json")
	if _, stderr, err := run("-json", path, "E8"); err != nil {
		t.Fatalf("-json: %v\n%s", err, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct{ Experiments []experiments.Table }
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "E8" {
		t.Fatalf("-json E8 wrote %d tables: %+v", len(rep.Experiments), rep.Experiments)
	}
}
