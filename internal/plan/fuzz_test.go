package plan

import (
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// fuzzReplicaSpec encodes a replica whose three scans are each fed by a
// shard-hosted fragment, one of every kind, plus the host registry that can
// run it: (s ⋈ a on room) ⋈ j on room over a select, a grouped aggregate
// and a same-desk join fragment.
func fuzzReplicaSpec(t testing.TB) ([]byte, *SensorHosts) {
	t.Helper()
	hosts := newFragTestHosts()

	sel := SensorFragment{Name: "sel", Sources: []string{"light"},
		Select: &sensor.SelectQuery{Rel: "s", Sensor: sensornet.SensorLight, Period: time.Second}}
	agg := SensorFragment{Name: "agg", Sources: []string{"temperature"},
		Agg: &sensor.AggregateQuery{Rel: "a", Sensor: sensornet.SensorTemperature,
			Func: sensor.AggCount, GroupByRoom: true, Period: time.Second}}
	join := SensorFragment{Name: "jn", Sources: []string{"temperature", "light"},
		Join: &sensor.JoinQuery{
			Left:   sensor.JoinSide{Rel: "t", Sensor: sensornet.SensorTemperature},
			Right:  sensor.JoinSide{Rel: "l", Sensor: sensornet.SensorLight},
			PairBy: sensor.PairSameDesk, Period: time.Second,
		}}
	root := NewJoin(
		NewJoin(NewScan("sel", "s", sel.Schema(), nil, 10, false),
			NewScan("agg", "a", agg.Schema(), nil, 10, false), []string{"s.room"}, []string{"a.room"}, nil),
		&Scan{Input: "jn", Alias: "j", Rate: 10, schema: join.Schema()}, []string{"s.room"}, []string{"t.room"}, nil)

	var frags []wireFragment
	for i, f := range []*SensorFragment{&sel, &agg, &join} {
		keyIdx := []int{1} // room, of a reading or of a joined pair's left side
		if f.Agg != nil {
			keyIdx = []int{0}
		}
		w, err := encodeFragment(f, scanName(i), keyIdx, 1, vtime.Second)
		if err != nil {
			t.Fatal(err)
		}
		frags = append(frags, w)
	}
	spec, err := encodeReplica(root, nil, frags)
	if err != nil {
		t.Fatal(err)
	}
	return spec, hosts
}

// FuzzReplicaSpec feeds DeployReplica — the decoder every shard home runs on
// bytes that arrived over TCP — damaged replica specs: it must return an
// error or a working replica, never panic. The corpus is the garbage
// TestDeployReplicaGarbageSpec deploys, a valid spec carrying one fragment
// of each kind, and that spec's truncations.
func FuzzReplicaSpec(f *testing.F) {
	spec, hosts := fuzzReplicaSpec(f)
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
		a.Advance(2 * vtime.Second)
	}
	if sent == 0 {
		f.Fatal("valid spec deployed a replica that emits nothing")
	}

	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add(spec)
	for n := len(spec) - 1; n > 0; n -= len(spec)/16 + 1 {
		f.Add(spec[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		heads, _, cks, err := hosts.DeployReplica(b, 0, nil, discard)
		if err != nil {
			return
		}
		if len(heads) == 0 {
			t.Fatal("deployed a replica with no entry point")
		}
		state, err := stream.EncodeCheckpoint(cks)
		if err != nil {
			t.Fatalf("fresh replica does not checkpoint: %v", err)
		}
		if _, _, _, err := hosts.DeployReplica(b, 0, state, discard); err != nil {
			t.Fatalf("replica does not redeploy from its own checkpoint: %v", err)
		}
	})
}
