package plan

import (
	"bytes"
	"encoding/gob"
	"maps"
	"slices"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// fuzzReplicaSpec encodes a replica whose two scans are each fed by a
// shard-hosted fragment, one of every kind, plus the host registry that can
// run it: s ⋈ j on room over a select and a same-desk join fragment. A
// non-nil damage edits the select fragment's wire form before encoding.
func fuzzReplicaSpec(t testing.TB, damage func(*wireFragment)) ([]byte, *SensorHosts) {
	t.Helper()
	hosts := newFragTestHosts()

	sel := SensorFragment{Name: "sel", Sources: []string{"light"},
		Select: &sensor.SelectQuery{Rel: "s", Sensor: sensornet.SensorLight, Period: time.Second}}
	join := SensorFragment{Name: "jn", Sources: []string{"temperature", "light"},
		Join: &sensor.JoinQuery{
			Left:   sensor.JoinSide{Rel: "t", Sensor: sensornet.SensorTemperature},
			Right:  sensor.JoinSide{Rel: "l", Sensor: sensornet.SensorLight},
			PairBy: sensor.PairSameDesk, Period: time.Second,
		}}
	root := NewJoin(NewScan("sel", "s", sel.Schema(), nil, 10, false),
		&Scan{Input: "jn", Alias: "j", Rate: 10, schema: join.Schema()}, []string{"s.room"}, []string{"t.room"}, nil)

	var frags []wireFragment
	for i, f := range []*SensorFragment{&sel, &join} {
		// room, of a reading or of a joined pair's left side
		w, err := encodeFragment(f, scanName(i), []int{1}, 1, vtime.Second)
		if err != nil {
			t.Fatal(err)
		}
		frags = append(frags, w)
	}
	if damage != nil {
		damage(&frags[0])
	}
	spec, err := encodeReplica(root, nil, frags)
	if err != nil {
		t.Fatal(err)
	}
	return spec, hosts
}

// fuzzHorizon is the virtual instant FuzzReplicaSpec ticks a replica to, and
// fuzzMaxEpochs the most epochs any one fragment may fire by then: a damaged
// period or start instant can ask for billions, and the harness skips such a
// spec rather than run it for hours.
const (
	fuzzHorizon   = 2 * vtime.Second
	fuzzMaxEpochs = 64
)

// epochsBounded reports whether every fragment of the spec fires at most
// fuzzMaxEpochs epochs by fuzzHorizon, at a period of at least 1 ms — the
// period a runner uses, 1 s for one unset. A spec that does not decode
// deploys nothing, so it passes.
func epochsBounded(spec []byte) bool {
	var rep wireReplica
	if gob.NewDecoder(bytes.NewReader(spec)).Decode(&rep) != nil {
		return true
	}
	for _, w := range rep.Fragments {
		period := w.Query.Period
		if period <= 0 {
			period = time.Second
		}
		// In floats: a start instant far before 0 overflows the difference.
		epochs := (float64(fuzzHorizon)-float64(w.StartAt))/float64(period) + 1
		if period < time.Millisecond || epochs > fuzzMaxEpochs {
			return false
		}
	}
	return true
}

// fuzzRow is one insert at ts carrying a value of every column's type.
func fuzzRow(s *data.Schema, ts vtime.Time) data.Tuple {
	vals := make([]data.Value, s.Arity())
	for i, c := range s.Cols {
		switch c.Type {
		case data.TInt:
			vals[i] = data.Int(1)
		case data.TFloat:
			vals[i] = data.Float(1)
		case data.TString:
			vals[i] = data.Str("L101")
		case data.TBool:
			vals[i] = data.Bool(true)
		case data.TTime:
			vals[i] = data.Value{T: data.TTime, I: int64(ts)}
		}
	}
	return data.NewTuple(ts, vals...)
}

// driveReplica pushes one batch into every head of a deployed replica, in
// name order so a failing input replays the same way, and then ticks its
// advancer to fuzzHorizon, firing its fragments' epochs.
func driveReplica(heads map[string]stream.Operator, advs []stream.Advancer) {
	for _, name := range slices.Sorted(maps.Keys(heads)) {
		h := heads[name]
		h.PushBatch([]data.Tuple{fuzzRow(h.Schema(), vtime.Second)})
	}
	for _, a := range advs {
		a.Advance(fuzzHorizon)
	}
}

// FuzzReplicaSpec feeds DeployReplica — the decoder every shard home runs on
// bytes that arrived over TCP — damaged replica specs: it must return an
// error or a working replica, never panic, and the replica must take a batch
// into every head and tick to fuzzHorizon without panicking, both as
// deployed and redeployed from its own checkpoint. The corpus is the garbage
// TestDeployReplicaGarbageSpec deploys, a valid spec carrying one fragment
// of each kind, that spec's truncations, and the spec with its select
// fragment relabelled kind 2 (once an aggregate, now unknown and refused).
func FuzzReplicaSpec(f *testing.F) {
	spec, hosts := fuzzReplicaSpec(f, nil)
	discard := func([]data.Tuple) error { return nil }

	// The valid seed really is valid: it deploys, its epochs fire, and rows
	// come out of the far end of both joins.
	sent := 0
	_, advs, _, err := hosts.DeployReplica(spec, 0, nil, func(ts []data.Tuple) error {
		sent += len(ts)
		return nil
	})
	if err != nil {
		f.Fatalf("valid spec does not deploy: %v", err)
	}
	for _, a := range advs {
		a.Advance(fuzzHorizon)
	}
	if sent == 0 {
		f.Fatal("valid spec deployed a replica that emits nothing")
	}

	kind2, _ := fuzzReplicaSpec(f, func(w *wireFragment) { w.Query.Kind = fragKind(2) })
	if _, _, _, err := hosts.DeployReplica(kind2, 0, nil, discard); err == nil {
		f.Fatal("a spec with a kind-2 fragment deploys")
	}

	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add(spec)
	f.Add(kind2)
	for n := len(spec) - 1; n > 0; n -= len(spec)/16 + 1 {
		f.Add(spec[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if !epochsBounded(b) {
			t.Skip("a fragment fires too many epochs by the horizon")
		}
		heads, advs, cks, err := hosts.DeployReplica(b, 0, nil, discard)
		if err != nil {
			return
		}
		if len(heads) == 0 {
			t.Fatal("deployed a replica with no entry point")
		}
		driveReplica(heads, advs)
		state, err := stream.EncodeCheckpoint(cks)
		if err != nil {
			t.Fatalf("driven replica does not checkpoint: %v", err)
		}
		heads, advs, _, err = hosts.DeployReplica(b, 0, state, discard)
		if err != nil {
			t.Fatalf("replica does not redeploy from its own checkpoint: %v", err)
		}
		driveReplica(heads, advs)
	})
}
