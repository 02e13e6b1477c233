// Package testproc is test support for the tests that cross real process
// boundaries: it builds the repository's commands and launches shardworker
// processes. plan's distributed differentials and the cmd smoke test share
// it, so the launch protocol — the "shardworker listening <addr>" banner —
// is parsed in one place.
package testproc

import (
	"bufio"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// Build compiles the command package pkg (e.g. "aspen/cmd/shardworker")
// into a scratch dir and returns the binary's path. The binary is built
// with -race when the calling test is, so both ends of a wire run checked.
func Build(t testing.TB, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), path.Base(pkg))
	args := []string{"build"}
	if Race {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, pkg)
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// StartWorker launches one shardworker binary (see Build) on an ephemeral
// port and returns the address it advertises on stdout, plus the process
// handle so chaos tests can SIGKILL it mid-run. The process is killed when
// the test ends.
func StartWorker(t testing.TB, bin string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("worker banner: %v", err)
	}
	const banner = "shardworker listening "
	if !strings.HasPrefix(line, banner) {
		t.Fatalf("unexpected worker banner %q", line)
	}
	return strings.TrimSpace(strings.TrimPrefix(line, banner)), cmd
}
