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
// fresh coordinator process. A WITH RECURSIVE query beside it is one a
// snapshot cannot capture: \save and -restore both name it on stderr, exit 0,
// and the SELECT still comes back. A malformed -occupy must exit non-zero.
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

	run := func(args ...string) (stdout, stderr string, err error) {
		var o, e strings.Builder
		cmd := exec.Command(aspenql, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.String(), e.String(), err
	}
	// ok runs aspenql and requires exit 0.
	ok := func(args ...string) (stdout, stderr string) {
		t.Helper()
		stdout, stderr, err := run(args...)
		if err != nil {
			t.Fatalf("aspenql %v: %v\n%s%s", args, err, stdout, stderr)
		}
		return stdout, stderr
	}
	// resultRows extracts the printed result rows ("  room | temp") in order.
	resultRows := func(stdout string) []string {
		t.Helper()
		var got []string
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "  ") && strings.Contains(line, " | ") {
				got = append(got, strings.TrimSpace(line))
			}
		}
		if len(got) == 0 {
			t.Fatalf("aspenql printed no result rows:\n%s", stdout)
		}
		return got
	}
	rows := func(args ...string) []string {
		t.Helper()
		stdout, _ := ok(args...)
		return resultRows(stdout)
	}
	same := func(label string, got, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s printed\n  %s\nwant\n  %s", label, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
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

	// The recursive query deploys first (q1) so the SELECT's last printed
	// rows are its state at the save.
	const routes = `WITH RECURSIVE paths(src, dst) AS (SELECT r.src, r.dst FROM RoutingPoints r
		UNION ALL SELECT p.src, r.dst FROM paths p, RoutingPoints r WHERE p.dst = r.src)
		SELECT src, dst FROM paths WHERE src = 'lobby'`
	const warning = "snapshot does not capture q1"
	snap = filepath.Join(t.TempDir(), "routes.snap")
	stdout, stderr := ok("-snapshot", snap, "-q", routes+"; "+query+`; \save`)
	if !strings.Contains(stderr, warning) {
		t.Fatalf("\\save beside a recursive query: stderr lacks %q:\n%s", warning, stderr)
	}
	_, selected, _ := strings.Cut(stdout, "aspenql> SELECT")
	stdout, stderr = ok("-snapshot", snap, "-restore", "-run", "0s")
	if !strings.Contains(stderr, warning) {
		t.Fatalf("-restore of that snapshot: stderr lacks %q:\n%s", warning, stderr)
	}
	same("restored beside an uncaptured recursive query", resultRows(stdout), resultRows(selected))

	_, stderr, err := run("-occupy", "L101:1,L102", "-q", query)
	if err == nil {
		t.Fatal("malformed -occupy was accepted")
	}
	if !strings.Contains(stderr, `"L102" is not a room:desk pair`) {
		t.Fatalf("malformed -occupy exit does not name the pair:\n%s", stderr)
	}
}
