package plan

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"aspen/internal/expr"
	"aspen/internal/gobcheck"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// sealSnapshot frames body as a snapshot file of the format this build
// writes, its checksum computed over body.
func sealSnapshot(body []byte) []byte {
	raw := append([]byte(snapMagic), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(raw[8:], snapVersion)
	binary.LittleEndian.PutUint32(raw[12:], crc32.ChecksumIEEE(body))
	return append(raw, body...)
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// What one decoder call may allocate: decodeAllocBase bytes (gob compiles a
// decoder for every type it meets) plus decodeAllocPerByte bytes per byte of
// its input.
const (
	decodeAllocBase    = 4 << 20
	decodeAllocPerByte = 512
)

// decodeSnapshotFile runs on raw every decoder Coordinator.Restore runs
// before it compiles anything — the file's, and per deployment its plan's,
// its fragments' and its shard and coordinator states', then the shared
// chains' states, including each fragment runner's state inside them — and
// fails t when one call allocates more than its input pays for. It returns
// whether the file itself decoded.
func decodeSnapshotFile(t testing.TB, raw []byte) bool {
	t.Helper()
	call := func(what string, in int, f func()) {
		t.Helper()
		if n, limit := allocated(f), decodeAllocBase+decodeAllocPerByte*uint64(in); n > limit {
			t.Fatalf("%s of %d bytes allocated %d, over %d", what, in, n, limit)
		}
	}
	var f *snapFile
	var err error
	call("the file", len(raw), func() { f, err = decodeSnapshot(raw) })
	if err != nil {
		return false
	}
	var states [][]byte
	for _, sd := range f.Deployments {
		call("a plan", len(raw), func() { decodeNode(sd.Root) })
		for _, sf := range sd.Fragments {
			call("a fragment", len(raw), func() { decodeSnapFragment(sf) })
		}
		states = append(states, sd.Coord)
		for _, k := range slices.Sorted(maps.Keys(sd.Shards)) {
			states = append(states, sd.Shards[k])
		}
	}
	for _, k := range slices.Sorted(maps.Keys(f.Chains)) {
		states = append(states, f.Chains[k])
	}
	for _, st := range states {
		if len(st) == 0 {
			continue // no state: RestoreCheckpoint's fresh start decodes nothing
		}
		var ops []stream.OpState
		call("a checkpoint", len(st), func() { ops, _ = stream.DecodeCheckpoint(st) })
		for _, op := range ops {
			if b, err := op.OpaqueData(); err == nil && len(b) > 0 {
				call("a fragment runner's state", len(b), func() { gobcheck.Decode(b, new(fragCkState)) })
			}
		}
	}
	return true
}

// hostileSnapshot is a snapshot file whose one shared-chain state sits in a
// map that claims 2^20 entries: its key shortened by four bytes pays for
// the three-byte count, so the message keeps its length.
func hostileSnapshot(t testing.TB) []byte {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&snapFile{Chains: map[string][]byte{"abcdefgh": {1}}}); err != nil {
		t.Fatal(err)
	}
	b, entry := body.Bytes(), []byte("\x01\x08abcdefgh")
	i := bytes.Index(b, entry)
	if i < 0 || bytes.Index(b[i+1:], entry) >= 0 {
		t.Fatalf("entry not found once in % x", b)
	}
	return sealSnapshot(append(append(b[:i:i], "\xfd\x10\x00\x00\x05abcde"...), b[i+len(entry):]...))
}

// A snapshot file whose map claims a million entries in a few bytes is an
// error, and reading it allocates what its size pays for: gob alone sizes
// the map before it reads an entry.
func TestSnapshotMapCountPastInput(t *testing.T) {
	raw := hostileSnapshot(t)
	var err error
	if n := allocated(func() { _, err = decodeSnapshot(raw) }); n > 1<<20 {
		t.Fatalf("a %d-byte snapshot allocated %d bytes", len(raw), n)
	}
	if err == nil {
		t.Fatal("a snapshot whose map claims 2^20 entries in a few bytes decoded")
	}
}

// manyDeployments is the body of a snapshot of 300 deployments, each with a
// predicate: the first sends its expression types' definitions as messages
// of their own, so the deployment list runs on past the message its count
// is in.
func manyDeployments(t testing.TB) []byte {
	f := &snapFile{}
	for i := range 300 {
		f.Deployments = append(f.Deployments, snapDeployment{Name: fmt.Sprint("q", i),
			Root: wireNode{Pred: expr.Bin{Op: expr.OpGt, L: expr.C("v"), R: expr.L(i)}}})
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(f); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

func TestSnapshotManyDeploymentsDecode(t *testing.T) {
	got, err := decodeSnapshot(sealSnapshot(manyDeployments(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Deployments) != 300 || got.Deployments[299].Name != "q299" {
		t.Fatalf("decoded %d deployments", len(got.Deployments))
	}
}

// readSnapshot returns the snapshot file at path.
func readSnapshot(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// resavedGroups restores the parent-written result groups' snapshot and
// returns the file this build's Save writes from it: no group's state in any
// member.
func resavedGroups(t testing.TB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "groups.snap")
	if err := os.WriteFile(path, readSnapshot(t, "testdata/snapshot_v2_groups_parent.snap"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := stream.NewEngine("resave", vtime.NewScheduler())
	coord := NewCoordinator(Host{Engine: eng, Sharing: NewSharing(eng)}, path)
	defer coord.Close()
	if _, err := coord.Restore(); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Save(); err != nil {
		t.Fatal(err)
	}
	return readSnapshot(t, path)
}

// FuzzSnapshotFile feeds damaged snapshot bodies, resealed so that they
// pass the checksum and reach gob, to every decoder Coordinator.Restore
// runs before it compiles anything (decodeSnapshotFile): each returns an
// error or a value, never panics, and allocates no more than its input
// pays for. Nothing here dials, and only the seeding compiles. The corpus
// is the parent-written snapshot TestRestoreParentWrittenSnapshot restores,
// its truncations, the result groups' file
// TestRestoreParentWrittenGroupSnapshot restores (a copy of a group's state
// in every member), that file restored and saved again by this build (no
// group state), the map that claims more entries than it
// holds, and a snapshot of many deployments.
func FuzzSnapshotFile(f *testing.F) {
	raw := readSnapshot(f, "testdata/snapshot_v2_parent.snap")
	if !decodeSnapshotFile(f, raw) {
		f.Fatal("the parent-written snapshot does not decode")
	}
	body := raw[16:]
	f.Add(body)
	for n := len(body) - 1; n > 0; n -= len(body)/16 + 1 {
		f.Add(body[:n])
	}
	for _, groups := range [][]byte{readSnapshot(f, "testdata/snapshot_v2_groups_parent.snap"), resavedGroups(f)} {
		if !decodeSnapshotFile(f, groups) {
			f.Fatal("a result groups' snapshot does not decode")
		}
		f.Add(groups[16:])
	}
	f.Add(hostileSnapshot(f)[16:])
	f.Add(manyDeployments(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeSnapshotFile(t, sealSnapshot(body))
	})
}
