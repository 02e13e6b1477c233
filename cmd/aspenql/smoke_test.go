package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"aspen/internal/testproc"
)

// TestSmokeShardedCLI drives the real binaries end to end on the deploy
// path: cmd/aspenql as coordinator, cmd/shardworker as the other PC. One
// grouped query must print the same result rows run serially, with both
// shards deployed on the worker process, and after those shards were
// rescaled back in-process with their state, saved, and restored by a
// fresh coordinator process. A malformed -occupy must exit non-zero.
func TestSmokeShardedCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches the commands")
	}
	aspenql := testproc.Build(t, "aspen/cmd/aspenql")
	worker, _ := testproc.StartWorker(t, testproc.Build(t, "aspen/cmd/shardworker"))
	snap := filepath.Join(t.TempDir(), "coord.snap")
	// Grouped on the shard key, so every group aggregates inside one shard
	// in arrival order: the float averages are bit-equal to serial.
	const query = `SELECT t.room, avg(t.value) AS temp FROM Temperature t [RANGE 2 SECONDS] GROUP BY t.room`

	run := func(args ...string) (string, error) {
		out, err := exec.Command(aspenql, args...).CombinedOutput()
		return string(out), err
	}
	// rows extracts the printed result rows ("  room | temp") in order.
	rows := func(args ...string) []string {
		t.Helper()
		out, err := run(args...)
		if err != nil {
			t.Fatalf("aspenql %v: %v\n%s", args, err, out)
		}
		var got []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "  ") && strings.Contains(line, " | ") {
				got = append(got, strings.TrimSpace(line))
			}
		}
		if len(got) == 0 {
			t.Fatalf("aspenql %v printed no result rows:\n%s", args, out)
		}
		return got
	}
	same := func(label string, got, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s printed\n  %s\nserial printed\n  %s", label, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
	}

	serial := rows("-q", query)
	same("both shards on the worker", rows("-par", "2", "-nodes", worker, "-q", query), serial)

	// The rows of the third run are read from a second coordinator: the
	// first deploys on the worker, pulls both shards home and saves; the
	// second restores that snapshot and prints it before any epoch runs.
	rows("-par", "2", "-nodes", worker, "-snapshot", snap, "-q", query+`; \rescale; \save`)
	same("rescaled in-process, saved and restored",
		rows("-par", "2", "-snapshot", snap, "-restore", "-run", "0s"), serial)

	out, err := run("-occupy", "L101:1,L102", "-q", query)
	if err == nil {
		t.Fatalf("malformed -occupy was accepted:\n%s", out)
	}
	if !strings.Contains(out, `"L102" is not a room:desk pair`) {
		t.Fatalf("malformed -occupy exit does not name the pair:\n%s", out)
	}
}
