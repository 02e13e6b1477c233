package plan

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// countTypes walks everything reachable from root — pointers, interfaces,
// structs, slices, arrays and maps, unexported fields included; channels
// and funcs are not followed — and counts the values whose type String is
// one of names. The compile-rule tests use it to see which operators a
// deployment built without exporting them; call it only while nothing
// writes to what it reaches (after Flush).
func countTypes(root any, names ...string) map[string]int {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	got := map[string]int{}
	type seenKey struct {
		p uintptr
		t reflect.Type
	}
	seen := map[seenKey]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			k := seenKey{v.Pointer(), v.Type()}
			if seen[k] {
				return
			}
			seen[k] = true
			if want[v.Type().String()] {
				got[v.Type().String()]++
			}
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if v.Kind() == reflect.Slice && v.IsNil() {
				return
			}
			for i := range v.Len() {
				walk(v.Index(i))
			}
		case reflect.Map:
			it := v.MapRange()
			for it.Next() {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(root))
	return got
}

const (
	projectType = "*stream.Project"
	keptType    = "*stream.keptColumns"
)

// literalStore lowers root node by node into a store of its own, the way a
// deployment's result was fed before bare-column projections compiled into
// it: every selection a Filter above its window, every projection a
// Project.
func literalStore(t *testing.T, root Node) (*lowering, *stream.Materialize) {
	t.Helper()
	store := stream.NewMaterialize(root.Schema())
	lw := newLowering(root)
	if err := lw.lower(root, store); err != nil {
		t.Fatalf("literal lowering of %s: %v", root, err)
	}
	return lw, store
}

// TestResultFeedCompileRule pins where a bare-column projection compiles into
// its store and where it keeps its Project: a serial deployment of SELECT
// a, b over a windowed selection — alone, with columns reordered and
// repeated, or as a result group — builds no stream.Project, while a
// computed item, OUTPUT TO and a sharded plan each still build one. Every
// case reads, after every event of one workload, the rows of the same query
// lowered node by node into a store; the serial cases also fire OnChange as
// often and encode their result's checkpoint to the same bytes. A sharded
// result's batches are cut by its replicas, so it is held to rows alone.
func TestResultFeedCompileRule(t *testing.T) {
	const where = " FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.a >= 1"
	cases := []struct {
		name      string
		text      string
		par       int
		share     bool
		projects  int // Projects built: one per replica when sharded
		kept      int
		deltasToo bool
	}{
		{"bare", "SELECT {a}.a, {a}.s" + where, 1, false, 0, 1, true},
		{"reordered and repeated", "SELECT {a}.s, {a}.a, {a}.a AS x" + where, 1, false, 0, 1, true},
		{"result group", "SELECT {a}.a, {a}.s" + where, 1, true, 0, 1, true},
		{"computed", "SELECT {a}.a + 1 AS e, {a}.s" + where, 1, false, 1, 0, true},
		{"computed result group", "SELECT {a}.a + 1 AS e, {a}.s" + where, 1, true, 1, 0, true},
		{"display", "SELECT {a}.a, {a}.s" + where + " OUTPUT TO board", 1, false, 1, 0, true},
		{"sharded", "SELECT {a}.a, {a}.s" + where, 2, false, 2, 0, false},
	}
	for _, mask := range []uint64{^uint64(0), 0} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("mask=%x/%s", mask&1, c.name), func(t *testing.T) {
				defer stream.SetTestHashMask(stream.SetTestHashMask(mask))
				eng := stream.NewEngine("rule", vtime.NewScheduler())
				host := Host{Engine: eng}
				if c.share {
					host.Sharing = NewSharing(eng)
				}
				dep, err := CompileStreamOpts(buildAs(t, c.text, "t"), host, CompileOptions{Topology: Topology{Parallelism: c.par}})
				if err != nil {
					t.Fatal(err)
				}
				defer dep.Close()
				if dep.Shards != c.par {
					t.Fatalf("deployed %d shards, want %d", dep.Shards, c.par)
				}
				dep.Flush()
				if got := countTypes(dep, projectType, keptType); got[projectType] != c.projects || got[keptType] != c.kept {
					t.Fatalf("built %d Projects and %d column feeds, want %d and %d", got[projectType], got[keptType], c.projects, c.kept)
				}
				lit, ref := literalStore(t, buildAs(t, c.text, "r").Root)
				fired, refFired := 0, 0
				dep.Result.ChainOnChange(func() { fired++ })
				ref.ChainOnChange(func() { refFired++ })

				evs := genWorkload(rand.New(rand.NewSource(*fuzzSeed+45100)), fuzzSources()[:1], 300)
				nonEmpty := false
				for i, ev := range evs {
					pushEvents(eng, evs, i, i+1)
					tick := ev.tick
					if tick == 0 {
						lit.step(ev.input, []data.Tuple{ev.t.Clone()}, 0)
						// Tick at the row's time too: a shard's window expires at
						// its own pace between ticks (compileSharded).
						tick = ev.t.TS
						eng.Advance(tick)
					}
					lit.step("", nil, tick)
					ctx := fmt.Sprintf("event %d", i)
					want, err := ref.Snapshot(nil, -1)
					if err != nil {
						t.Fatal(err)
					}
					sortByKey(want)
					requireEqualRows(t, ctx, snapshotSorted(t, dep), want)
					nonEmpty = nonEmpty || len(want) > 0
					if !c.deltasToo {
						continue
					}
					if fired != refFired {
						t.Fatalf("%s: OnChange fired %d times, the node-per-operator store's %d", ctx, fired, refFired)
					}
					got, err := stream.EncodeCheckpoint([]stream.Checkpointer{dep.Result})
					if err != nil {
						t.Fatal(err)
					}
					if exp, _ := stream.EncodeCheckpoint([]stream.Checkpointer{ref}); !slices.Equal(got, exp) {
						t.Fatalf("%s: the result checkpoints to other bytes than the node-per-operator store", ctx)
					}
				}
				if !nonEmpty {
					t.Fatal("the result stayed empty; the comparison ran vacuously")
				}
			})
		}
	}
}

// lifeMember is one member of TestResultStoreLifecycle: its query, the
// recompute of its rows from one input row, and what the checks last saw.
type lifeMember struct {
	name  string
	text  string
	keep  func(t data.Tuple) bool
	row   func(t data.Tuple) []data.Value
	dep   *Deployment
	fired int

	seen      []data.Tuple // the rows and fired at the last check
	seenFired int
	frozen    []data.Tuple // the rows at Drop; nil while live
}

// TestResultStoreLifecycle runs a result group's store through its whole
// life, under both hash masks, and after every event holds each member to
// project(filter(window)) recomputed from the pushed log — never to another
// deployment:
//   - a group keeping columns reordered and repeated warm-starts onto a
//     shared window already populated;
//   - a member joins each group, and a group with a computed item, which
//     keeps its Project, runs alongside;
//   - a member is dropped mid-run, which freezes its view: it keeps the rows
//     it read and its hook no longer fires;
//   - every member's coordinator state is saved and restored into a fresh
//     runtime, and the restored rows, filed whole, expire through the column
//     feed;
//   - the last member of a group releases it, and at the end the registry
//     is empty.
func TestResultStoreLifecycle(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 0} {
		t.Run(fmt.Sprintf("mask=%x", mask&1), func(t *testing.T) {
			defer stream.SetTestHashMask(stream.SetTestHashMask(mask))
			runStoreLifecycle(t)
		})
	}
}

func runStoreLifecycle(t *testing.T) {
	const rng = 2 * time.Second
	aGe1 := func(t data.Tuple) bool { a := t.Vals[0]; return !a.IsNull() && a.AsInt() >= 1 }
	bLt3 := func(t data.Tuple) bool { b := t.Vals[1]; return !b.IsNull() && b.AsInt() < 3 }
	sa := func(t data.Tuple) []data.Value { return []data.Value{t.Vals[2], t.Vals[0]} }
	asa := func(t data.Tuple) []data.Value { return []data.Value{t.Vals[0], t.Vals[2], t.Vals[0]} }
	computed := func(t data.Tuple) []data.Value {
		e := data.Null
		if !t.Vals[0].IsNull() {
			e = data.Int(t.Vals[0].AsInt() + 1)
		}
		return []data.Value{e, t.Vals[2]}
	}
	const (
		g1 = "SELECT {a}.s, {a}.a FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.a >= 1"
		g2 = "SELECT {a}.a, {a}.s, {a}.a AS x FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.b < 3"
		g3 = "SELECT {a}.a + 1 AS e, {a}.s FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.b < 3"
	)
	members := map[string]*lifeMember{
		"m1": {text: g1, keep: aGe1, row: sa},
		"m2": {text: g1 + " ORDER BY {a}.s DESC", keep: aGe1, row: sa},
		"m3": {text: g2, keep: bLt3, row: asa},
		"m4": {text: g2, keep: bLt3, row: asa},
		"m5": {text: g3, keep: bLt3, row: computed},
	}
	for name, m := range members {
		m.name = name
	}

	// The input: S1(a, b, s) rows every 100 ms, with NULLs and strings on
	// both sides of the 8-byte word, and every 30th event an idle gap of 3 s
	// that a tick expires.
	gen := rand.New(rand.NewSource(*fuzzSeed + 45200))
	strs := []data.Value{data.Str(""), data.Str("abcdefg"), data.Str("abcdefgh"), data.Str("abcdefghi"), data.Str("L101")}
	small := func() data.Value {
		if gen.Intn(8) == 0 {
			return data.Null
		}
		return data.Int(int64(gen.Intn(5)))
	}
	var evs []fuzzEvent
	ts := vtime.Time(0)
	for i := 0; i < 300; i++ {
		ts += vtime.Time(100 * time.Millisecond)
		if i%30 == 29 {
			ts += vtime.Time(3 * time.Second)
			evs = append(evs, fuzzEvent{tick: ts})
			continue
		}
		evs = append(evs, fuzzEvent{input: "S1", t: data.NewTuple(ts, small(), small(), strs[gen.Intn(len(strs))])})
	}

	// The recompute: the window at the clock holds the pushed rows younger
	// than RANGE.
	var log []data.Tuple
	clock := vtime.Time(0)
	want := func(m *lifeMember) []data.Tuple {
		var out []data.Tuple
		for _, tu := range log {
			if tu.TS > clock.Add(-rng) && m.keep(tu) {
				out = append(out, data.Tuple{Vals: m.row(tu)})
			}
		}
		sortByKey(out)
		return out
	}

	path := filepath.Join(t.TempDir(), "coord.snap")
	eng := stream.NewEngine("life", vtime.NewScheduler())
	sharing := NewSharing(eng)
	coord := NewCoordinator(Host{Engine: eng, Sharing: sharing}, path)
	hook := func(m *lifeMember) {
		m.dep.Result.ChainOnChange(func() { m.fired++ })
		m.seen, m.seenFired = snapshotSorted(t, m.dep), m.fired
	}
	deploy := func(name string) {
		t.Helper()
		m := members[name]
		var err error
		if m.dep, err = coord.Deploy(name, buildAs(t, m.text, "t"+name), CompileOptions{}); err != nil {
			t.Fatalf("deploy %s: %v", name, err)
		}
		hook(m)
	}
	check := func(when string) {
		t.Helper()
		for _, name := range slices.Sorted(maps.Keys(members)) {
			m := members[name]
			if m.dep == nil {
				continue
			}
			ctx := fmt.Sprintf("%s: %s %q", when, name, m.text)
			if m.frozen != nil {
				requireEqualRows(t, ctx+" (frozen)", snapshotSorted(t, m.dep), m.frozen)
				if m.fired != m.seenFired {
					t.Fatalf("%s: OnChange fired %d times after the drop", ctx, m.fired-m.seenFired)
				}
				continue
			}
			rows := snapshotSorted(t, m.dep)
			requireEqualRows(t, ctx, rows, want(m))
			if m.fired == m.seenFired && !sameRows(rows, m.seen) {
				t.Fatalf("%s: the rows moved from %v to %v but OnChange never fired", ctx, m.seen, rows)
			}
			m.seen, m.seenFired = rows, m.fired
		}
	}
	run := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			pushEvents(eng, evs, i, i+1)
			if ev := evs[i]; ev.tick != 0 {
				clock = max(clock, ev.tick)
			} else {
				log = append(log, ev.t)
				clock = max(clock, ev.t.TS)
			}
			check(fmt.Sprintf("event %d", i))
		}
	}
	drop := func(name string) {
		t.Helper()
		m := members[name]
		m.frozen = snapshotSorted(t, m.dep)
		if err := coord.Drop(name); err != nil {
			t.Fatal(err)
		}
		m.seenFired = m.fired
	}
	groupOf := func(name string) *sharedResult { return members[name].dep.group }

	deploy("m1")
	run(0, 40)
	// g2 opens a selection layer of its own on the populated shared window:
	// its store starts from a warm start, not empty.
	if len(want(members["m3"])) == 0 {
		t.Fatal("the shared window holds nothing g2 keeps; the warm start would be vacuous")
	}
	for _, name := range []string{"m3", "m5", "m2", "m4"} {
		deploy(name)
	}
	check("after the deploys")
	if len(sharing.results) != 3 || groupOf("m1") != groupOf("m2") || groupOf("m3") != groupOf("m4") {
		t.Fatalf("%d result groups; want three, m1 with m2 and m3 with m4", len(sharing.results))
	}
	for name, wantProject := range map[string]bool{"m1": false, "m3": false, "m5": true} {
		if _, isProject := groupOf(name).head.(*stream.Project); isProject != wantProject {
			t.Fatalf("%s's store is fed by a %T; a Project: %t, want %t", name, groupOf(name).head, isProject, wantProject)
		}
	}
	run(40, 100)
	drop("m2")
	run(100, 140)

	if _, err := coord.Save(); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	eng = stream.NewEngine("restored", vtime.NewScheduler())
	sharing = NewSharing(eng)
	coord = NewCoordinator(Host{Engine: eng, Sharing: sharing}, path)
	if _, err := coord.Restore(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, m := range members {
		if m.frozen != nil {
			continue
		}
		var ok bool
		if m.dep, ok = coord.Deployment(m.name); !ok {
			t.Fatalf("%s not restored", m.name)
		}
		hook(m)
	}
	check("after the restore")
	if len(want(members["m3"])) == 0 || len(want(members["m1"])) == 0 {
		t.Fatal("nothing restored for the column feeds to retract; the check would be vacuous")
	}
	run(140, 220) // two idle gaps: every restored row expires

	drop("m3")
	if len(sharing.results) != 3 {
		t.Fatalf("%d result groups after m3 left, want 3: m4 still reads g2", len(sharing.results))
	}
	run(220, 240)
	drop("m4")
	if len(sharing.results) != 2 {
		t.Fatalf("%d result groups after g2's last member left, want 2", len(sharing.results))
	}
	run(240, len(evs)-1)
	for _, name := range []string{"m1", "m5"} {
		drop(name)
	}
	check("after the last drop")
	if chains, attached := sharing.Stats(); chains != 0 || attached != 0 || len(sharing.results) != 0 {
		t.Fatalf("chains=%d attached=%d groups=%d after every member left, want 0", chains, attached, len(sharing.results))
	}
	coord.Close()
}
