package plan

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// TestRestoreParentWrittenSnapshot restores testdata/snapshot_v2_parent.snap,
// a format-version-2 file written by the commit before PR 21 (7d293d0), and
// requires the rows that commit recorded beside it: the durable format, not
// just a same-build round trip, has to survive refactors of the structs it
// mirrors. The file holds a serial shared-chain query, a P=2 in-process
// two-phase aggregate, and a P=4 failover-armed deployment whose LightFeed
// fragment ran on two sensor workers (at 127.0.0.1:1 and :2, so the restore
// finds them gone and heals in-process with the fragment still pinned). It
// was saved at the 4s mark; "after" is what the writer's own uninterrupted
// run showed at 8s.
func TestRestoreParentWrittenSnapshot(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_v2_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	eng := stream.NewEngine("fixture-restore", vtime.NewScheduler())
	host := fragHost(eng, newFragCompileHosts())
	host.Sharing = NewSharing(eng)
	host.Now = func() vtime.Time { return 4 * vtime.Second }
	coord := NewCoordinator(host, "testdata/snapshot_v2_parent.snap")
	defer coord.Close()
	skipped, err := coord.Restore()
	if err != nil || len(skipped) != 0 {
		t.Fatalf("restore: err %v, skipped %v", err, skipped)
	}
	names := []string{"chain", "frag", "twophase"}
	if got := coord.Names(); !slices.Equal(got, names) {
		t.Fatalf("restored %v, want %v", got, names)
	}
	check := func(phase string) {
		t.Helper()
		for _, name := range names {
			dep, _ := coord.Deployment(name)
			var got []string
			for _, r := range snapshotSorted(t, dep) {
				cells := make([]string, len(r.Vals))
				for i, v := range r.Vals {
					cells[i] = v.String()
				}
				got = append(got, strings.Join(cells, "|"))
			}
			if !slices.Equal(got, want[phase][name]) {
				t.Fatalf("%s %s: rows %v, the writer recorded %v", name, phase, got, want[phase][name])
			}
		}
	}
	check("at_save")

	frag, _ := coord.Deployment("frag")
	if !slices.Equal(frag.RemoteFragments, []string{"LightFeed"}) {
		t.Fatalf("RemoteFragments = %v, want [LightFeed]", frag.RemoteFragments)
	}
	if got := frag.Placement(); !slices.Equal(got, make([]string, 4)) {
		t.Fatalf("placement %v, want 4 in-process shards (the workers are gone)", got)
	}
	if two, _ := coord.Deployment("twophase"); !two.TwoPhase || two.Shards != 2 {
		t.Fatalf("twophase restored TwoPhase=%v Shards=%d", two.TwoPhase, two.Shards)
	}
	// The flat on-disk topology fields came back as the one value.
	opts := coord.deps["frag"].opts
	if opts.Parallelism != 4 || len(opts.Nodes) != 2 || !opts.Failover ||
		opts.CheckpointEvery != 2 || opts.StallTimeout != 2*time.Second {
		t.Fatalf("frag topology restored as %+v", opts)
	}

	in, _ := eng.Input("S1")
	for _, e := range [][2]int64{{5, 4}, {6, 9}} {
		in.Push(data.Tuple{Vals: []data.Value{data.Int(e[1]), data.Int(0), data.Str("s")},
			TS: vtime.Time(e[0]) * vtime.Second})
	}
	for now := 5 * vtime.Second; now <= 8*vtime.Second; now += vtime.Second {
		eng.Advance(now)
	}
	check("after")
}
