package main

import (
	"os/exec"
	"strings"
	"syscall"
	"testing"

	"aspen/internal/testproc"
)

// TestBuildHosts pins the -sensors grammar: no entry hosts nothing, every
// entry is name=kind with a known kind, and names sharing a kind share the
// one synthetic field.
func TestBuildHosts(t *testing.T) {
	cases := []struct {
		name, spec string
		sources    []string // registered sources, sorted; nil = no hosts
		err        string
	}{
		{name: "no entry", spec: ""},
		{name: "entry without =", spec: "lablight=light,labtemp", err: `-sensors entry "labtemp" is not name=kind`},
		{name: "unknown kind", spec: "lab=sonar", err: `unknown sensor kind "sonar"`},
		{name: "repeated kind", spec: "a=light, B=LIGHT ,c=temperature", sources: []string{"a", "b", "c"}},
	}
	for _, c := range cases {
		hosts, err := buildHosts(c.spec, 2, 2, 1)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: error %v, want one containing %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if (c.sources == nil) != (hosts == nil) {
			t.Errorf("%s: hosts %v, want %v", c.name, hosts, c.sources)
		}
		for _, src := range c.sources {
			if e, _ := hosts.Engine(src); e == nil {
				t.Errorf("%s: %s has no engine", c.name, src)
			} else if first, _ := hosts.Engine(c.sources[0]); e != first {
				t.Errorf("%s: %s is served by a field of its own", c.name, src)
			}
		}
	}
}

// TestSmokeShardworker runs the built binary: it prints its banner and
// exits 0 on SIGTERM, and a bad -sensors value exits non-zero naming it.
func TestSmokeShardworker(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches the command")
	}
	bin := testproc.Build(t, "aspen/cmd/shardworker")
	addr, cmd := testproc.StartWorker(t, bin)
	if !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("worker advertises %q, want a loopback address", addr)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM: worker exited with %v, want status 0", err)
	}

	var stderr strings.Builder
	bad := exec.Command(bin, "-sensors", "lab=sonar")
	bad.Stderr = &stderr
	if err := bad.Run(); err == nil {
		t.Fatal("an unknown sensor kind was accepted")
	}
	if !strings.Contains(stderr.String(), `unknown sensor kind "sonar"`) {
		t.Fatalf("bad -sensors exit does not name the kind:\n%s", stderr.String())
	}
}
