package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestFixture runs the checker over testdata/fixture, a root module with a
// second module under tool/ as bench/ is in the repository, against one
// allowlist per case.
func TestFixture(t *testing.T) {
	dead, all, err := unreached(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	const base = "# the fixture's allowlist\nfix/lib.Allowed  hook  the fixture keeps it\n"
	cases := []struct {
		name, allow   string
		want, notWant []string
	}{
		{
			name:  "unreached declarations",
			allow: base,
			want: []string{
				"fix/lib.DeadExported is reached by no program",
				"fix/lib.deadUnexported is reached by no program",
			},
			notWant: []string{
				"Square.Area",         // reached only through an interface
				"fix/lib.ToolOnly",    // only the second module's main calls it
				"fix/lib.Allowed",     // allowlisted
				"fix/lib.ViaFacade",   // the facade's exported Exported calls it
				"fix/lib.StaleListed", // main calls it
			},
		},
		{
			name:  "stale line",
			allow: base + "fix/lib.StaleListed  hook  once needed\n",
			want:  []string{"fix/lib.StaleListed is stale"},
		},
		{
			name:  "line with no reason",
			allow: base + "fix/lib.DeadExported\nfix/lib.deadUnexported  because\n",
			want: []string{
				"fix/lib.DeadExported: no reason",
				"fix/lib.deadUnexported: no reason",
			},
		},
		{
			name:  "line naming nothing",
			allow: base + "fix/lib.Gone  hook  deleted since\n",
			want:  []string{"fix/lib.Gone names no declaration"},
		},
	}
	for _, c := range cases {
		got := strings.Join(checkAllow(dead, all, []byte(c.allow)), "\n")
		for _, w := range c.want {
			if !strings.Contains(got, w) {
				t.Errorf("%s: no %q in:\n%s", c.name, w, got)
			}
		}
		for _, w := range c.notWant {
			if strings.Contains(got, w) {
				t.Errorf("%s: %q reported in:\n%s", c.name, w, got)
			}
		}
	}
	if got := checkAllow(dead, all, []byte(base+
		"fix/lib.DeadExported  roadmap  an item\nfix/lib.deadUnexported  reference  a test\n")); len(got) != 0 {
		t.Errorf("a complete allowlist fails:\n%s", strings.Join(got, "\n"))
	}
}
