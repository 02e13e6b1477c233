package plan

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
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

// TestRestoreParentWrittenGroupSnapshot restores
// testdata/snapshot_v2_groups_parent.snap, a format-version-2 file written by
// commit 74dd4c1, the last whose Save wrote a copy of a result group's store
// state into every member's Coord, and requires the rows that commit recorded
// beside it (sorted as strings). The writer deployed six queries over S1 on
// a Host with Sharing, each under its own alias {a} (t, u, v, … in deploy
// order g3c, g2b, g3a, priv, g3b, g2a):
//
//	g3a  SELECT {a}.a, {a}.s FROM S1 {a} [RANGE 5 SECONDS] WHERE {a}.a >= 1
//	g3b  g3a's text + ORDER BY {a}.a DESC LIMIT 3
//	g3c  g3a's text with {a}.a AS x, + ORDER BY {a}.s  (one 3-member group)
//	g2a  SELECT {a}.b, {a}.s FROM S1 {a} [RANGE 5 SECONDS] WHERE {a}.a >= 1
//	g2b  g2a's text + ORDER BY {a}.b                   (a 2-member group)
//	priv SELECT {a}.b, count(*) AS n FROM S1 {a} [RANGE 5 SECONDS] GROUP BY {a}.b
//
// It pushed (a, b, s) rows at 1s (1,10,p) (0,11,q), 2s (2,10,r), 3s
// (3,12,s) (4,11,t) and 4s (5,10,u), advancing the engine to each second
// after that second's pushes, and saved at the 4s mark; "after" is what its
// own uninterrupted run showed at 8s after the pushes below.
func TestRestoreParentWrittenGroupSnapshot(t *testing.T) {
	const path = "testdata/snapshot_v2_groups_parent.snap"
	f, err := decodeSnapshot(readSnapshot(t, path))
	if err != nil {
		t.Fatal(err)
	}
	coords := map[string][]byte{}
	for _, sd := range f.Deployments {
		coords[sd.Name] = sd.Coord
	}
	// The file is what the old Save wrote: a copy of the group's state in
	// every member.
	for _, g := range [][]string{{"g3a", "g3b", "g3c"}, {"g2a", "g2b"}} {
		for _, name := range g[1:] {
			if len(coords[name]) == 0 || !bytes.Equal(coords[name], coords[g[0]]) {
				t.Fatalf("fixture: %s does not carry a copy of %s's group state", name, g[0])
			}
		}
	}
	restoreGroupFixture(t, path)
}

// TestRestoreIgnoresGroupCopies: a result group's store comes from its
// chain's window, never from the copy of it a file written before carries in
// a member's Coord. The group fixture with g2a's store state put into g3a,
// the member that creates the 3-member group on restore, still restores to
// exactly the rows the writer recorded.
func TestRestoreIgnoresGroupCopies(t *testing.T) {
	f, err := decodeSnapshot(readSnapshot(t, "testdata/snapshot_v2_groups_parent.snap"))
	if err != nil {
		t.Fatal(err)
	}
	at := map[string]int{}
	for i, sd := range f.Deployments {
		at[sd.Name] = i
	}
	g2a, g3a := &f.Deployments[at["g2a"]], &f.Deployments[at["g3a"]]
	if len(g2a.Coord) == 0 || bytes.Equal(g2a.Coord, g3a.Coord) {
		t.Fatal("fixture: g2a and g3a must carry different group states")
	}
	g3a.Coord = g2a.Coord
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(f); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "swapped.snap")
	if err := os.WriteFile(path, sealSnapshot(body.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	restoreGroupFixture(t, path)
}

// restoreGroupFixture restores the group fixture's deployments from path and
// requires the rows testdata/snapshot_v2_groups_parent.json records: at the
// save, and after TestRestoreParentWrittenGroupSnapshot's pushes.
func restoreGroupFixture(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile("testdata/snapshot_v2_groups_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	eng := stream.NewEngine("group-fixture-restore", vtime.NewScheduler())
	share := NewSharing(eng)
	coord := NewCoordinator(Host{Engine: eng, Sharing: share}, path)
	defer coord.Close()
	skipped, err := coord.Restore()
	if err != nil || len(skipped) != 0 {
		t.Fatalf("restore: err %v, skipped %v", err, skipped)
	}
	names := []string{"g2a", "g2b", "g3a", "g3b", "g3c", "priv"}
	if got := coord.Names(); !slices.Equal(got, names) {
		t.Fatalf("restored %v, want %v", got, names)
	}
	if len(share.results) != 2 {
		t.Fatalf("restore built %d result stores, want 2", len(share.results))
	}
	for name, members := range map[string]int{"g2a": 2, "g2b": 2, "g3a": 3, "g3b": 3, "g3c": 3} {
		if dep, _ := coord.Deployment(name); dep.group == nil || dep.group.members != members {
			t.Fatalf("%s restored into group %+v, want one of %d members", name, dep.group, members)
		}
	}
	if priv, _ := coord.Deployment("priv"); priv.group != nil {
		t.Fatal("priv restored into a result group")
	}
	check := func(phase string) {
		t.Helper()
		for _, name := range names {
			dep, _ := coord.Deployment(name)
			got := rowStrings(t, dep)
			slices.Sort(got)
			if len(got) == 0 || !slices.Equal(got, want[phase][name]) {
				t.Fatalf("%s %s: rows %v, the writer recorded %v", name, phase, got, want[phase][name])
			}
		}
	}
	check("at_save")

	in, _ := eng.Input("S1")
	pushed := map[vtime.Time][]data.Tuple{
		5: {{Vals: []data.Value{data.Int(6), data.Int(12), data.Str("v")}}},
		6: {{Vals: []data.Value{data.Int(7), data.Int(10), data.Str("w")}}},
		7: {{Vals: []data.Value{data.Int(0), data.Int(12), data.Str("x")}}},
	}
	for sec := vtime.Time(5); sec <= 8; sec++ {
		for _, r := range pushed[sec] {
			r.TS = sec * vtime.Second
			in.Push(r)
		}
		eng.Advance(sec * vtime.Second)
	}
	check("after")
}

// rowStrings returns dep's rows in its snapshot order, each as its cells'
// String forms joined by "|"; unlike EqualVals it tells -0 from 0.
func rowStrings(t *testing.T, dep *Deployment) []string {
	t.Helper()
	var out []string
	for _, r := range snapshotSorted(t, dep) {
		cells := make([]string, len(r.Vals))
		for i, v := range r.Vals {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return out
}
