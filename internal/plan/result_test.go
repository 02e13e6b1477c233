package plan

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// TestBuildConjunctsOnce: a WHERE with k conjuncts on one source compiles to
// one selection over exactly those k conjuncts, each once.
func TestBuildConjunctsOnce(t *testing.T) {
	for _, c := range []struct{ where, want string }{
		{`ss.desk > 1 AND ss.status = 'free'`,
			`project[ss.room](select[((ss.desk > 1) AND (ss.status = 'free'))](scan(SeatSensors as ss)))`},
		{`ss.desk > 1 AND ss.status = 'free' AND ss.room = 'L101'`,
			`project[ss.room](select[((ss.desk > 1) AND ((ss.status = 'free') AND (ss.room = 'L101')))](scan(SeatSensors as ss)))`},
	} {
		b := mustBuild(t, `SELECT ss.room FROM SeatSensors ss WHERE `+c.where, testCatalog())
		if got := b.String(); got != c.want {
			t.Errorf("WHERE %s compiles to\n  %s\nwant\n  %s", c.where, got, c.want)
		}
	}
}

// s1Catalog registers fuzzSources' S1 as a PC-side stream, so the result-group
// tests can deploy StreamSQL text over it.
func s1Catalog() *catalog.Catalog {
	cat := catalog.New()
	cat.MustAddSource(&catalog.Source{Name: "S1", Kind: catalog.KindStream, Schema: fuzzSources()[0].schema, Rate: 10})
	return cat
}

// buildAs builds text with every "{a}" replaced by alias.
func buildAs(t *testing.T, text, alias string) *Built {
	t.Helper()
	return mustBuild(t, strings.ReplaceAll(text, "{a}", alias), s1Catalog())
}

// TestSharedKeyDropsRepeatedConjuncts: a selection that repeats a conjunct —
// as plans restored from snapshots written before the WHERE fix carry them —
// keys to the same chain and the same result group as a fresh deploy of the
// same WHERE.
func TestSharedKeyDropsRepeatedConjuncts(t *testing.T) {
	sc := NewScan("S1", "t", fuzzSources()[0].schema, nil, 10, false)
	ge := expr.Bin{Op: expr.OpGe, L: expr.C("t.a"), R: expr.L(1)}
	lt := expr.Bin{Op: expr.OpLt, L: expr.C("t.b"), R: expr.L(3)}
	once, _ := canonSelection(expr.Bin{Op: expr.OpAnd, L: lt, R: ge}, sc.Schema())
	twice, _ := canonSelection(expr.Bin{Op: expr.OpAnd, L: ge, R: expr.Bin{Op: expr.OpAnd, L: ge, R: lt}}, sc.Schema())
	if once != twice || strings.Count(twice, "AND") != 1 {
		t.Fatalf("repeated conjunct kept in the key: %q vs %q", twice, once)
	}

	eng := stream.NewEngine("dedup", vtime.NewScheduler())
	s := NewSharing(eng)
	fresh := buildAs(t, "SELECT {a}.a FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.b < 3 AND {a}.a >= 1", "t")
	old := buildAs(t, "SELECT {a}.a FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.a >= 1", "u")
	sel := old.Root.(*Project).In.(*Select)
	lt3 := expr.Bin{Op: expr.OpLt, L: expr.C("u.b"), R: expr.L(3)}
	sel.Pred = expr.Bin{Op: expr.OpAnd, L: sel.Pred, R: expr.Bin{Op: expr.OpAnd, L: sel.Pred, R: lt3}}
	var deps []*Deployment
	for _, b := range []*Built{fresh, old} {
		d, err := CompileStreamOpts(b, Host{Engine: eng, Sharing: s}, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		deps = append(deps, d)
	}
	if chains, attached := s.Stats(); chains != 2 || attached != 2 || len(s.results) != 1 {
		t.Fatalf("chains=%d attached=%d groups=%d, want one layer and one result group under both", chains, attached, len(s.results))
	}
	for _, d := range deps {
		d.Close()
	}
}

// TestResultGroupSaveRestore: N identical queries (aliases, ORDER BY and LIMIT
// differ), one distinct query and one query that reads -0 share three result
// stores. Save writes no store: every member of every group carries no Coord
// and no Shards, so the file's Coord bytes sum to 0. The file restores one
// store per group, rebuilt from its chain's window, and every query reads
// what it read before Save, -0 included, then keeps tracking an
// uninterrupted run.
func TestResultGroupSaveRestore(t *testing.T) {
	same := []string{
		"SELECT {a}.a, {a}.s FROM S1 {a} [RANGE 5 SECONDS] WHERE {a}.a >= 1",
		"SELECT {a}.a, {a}.s FROM S1 {a} [RANGE 5 SECONDS] WHERE {a}.a >= 1 ORDER BY {a}.s DESC LIMIT 3",
		"SELECT {a}.a AS x, {a}.s FROM S1 {a} [RANGE 5 SECONDS] WHERE {a}.a >= 1 ORDER BY {a}.s",
	}
	// negZero's store holds a * -1.0, which is -0 where a is 0: a store
	// decoded from gob would read 0 there.
	negZero := len(same) + 1
	texts := append(slices.Clone(same),
		"SELECT {a}.b, {a}.s FROM S1 {a} [RANGE 5 SECONDS] WHERE {a}.a >= 1",
		"SELECT {a}.a * -1.0 AS z, {a}.s FROM S1 {a} [RANGE 5 SECONDS]")
	rng := rand.New(rand.NewSource(*fuzzSeed + 28100))
	evs := genWorkload(rng, fuzzSources()[:1], 200)
	half := len(evs) / 2

	ref := stream.NewEngine("ref", vtime.NewScheduler())
	path := filepath.Join(t.TempDir(), "coord.snap")
	engA := stream.NewEngine("a", vtime.NewScheduler())
	shareA := NewSharing(engA)
	coordA := NewCoordinator(Host{Engine: engA, Sharing: shareA}, path)
	names := make([]string, len(texts))
	refs := make([]*Deployment, len(texts))
	for i, text := range texts {
		names[i] = fmt.Sprintf("q%d", i)
		if _, err := coordA.Deploy(names[i], buildAs(t, text, fmt.Sprintf("t%d", i)), CompileOptions{}); err != nil {
			t.Fatal(err)
		}
		var err error
		if refs[i], err = CompileStreamOpts(buildAs(t, text, "r"), Host{Engine: ref}, CompileOptions{}); err != nil {
			t.Fatal(err)
		}
		defer refs[i].Close()
	}
	if len(shareA.results) != 3 {
		t.Fatalf("%d result groups, want 3", len(shareA.results))
	}
	pushEvents(engA, evs, 0, half)
	pushEvents(ref, evs, 0, half)
	before := map[string][]data.Tuple{}
	for _, name := range names {
		dep, _ := coordA.Deployment(name)
		if before[name] = snapshotSorted(t, dep); len(before[name]) == 0 {
			t.Fatalf("%s is empty at Save; the comparison would be vacuous", name)
		}
	}
	dep, _ := coordA.Deployment(names[negZero])
	negBefore := rowStrings(t, dep)
	if !slices.ContainsFunc(negBefore, func(r string) bool { return strings.HasPrefix(r, "-0|") }) {
		t.Fatalf("%s reads no -0 at Save; the sign check would be vacuous: %v", names[negZero], negBefore)
	}
	if _, err := coordA.Save(); err != nil {
		t.Fatal(err)
	}
	coordA.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := decodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, sd := range f.Deployments {
		if sd.Coord != nil || sd.Shards != nil {
			t.Fatalf("%s saved %d Coord bytes and %d shard states; a result group's member saves none",
				sd.Name, len(sd.Coord), len(sd.Shards))
		}
	}

	engB := stream.NewEngine("b", vtime.NewScheduler())
	shareB := NewSharing(engB)
	coordB := NewCoordinator(Host{Engine: engB, Sharing: shareB}, path)
	defer coordB.Close()
	if _, err := coordB.Restore(); err != nil {
		t.Fatal(err)
	}
	if len(shareB.results) != 3 {
		t.Fatalf("restore built %d result stores, want 3 (one per group)", len(shareB.results))
	}
	first, _ := coordB.Deployment(names[0])
	for i, name := range names {
		dep, _ := coordB.Deployment(name)
		requireEqualRows(t, "restored "+name, snapshotSorted(t, dep), before[name])
		inGroup, members := i < len(same), 1
		if inGroup {
			members = len(same)
		}
		if (dep.group == first.group) != inGroup || dep.group == nil || dep.group.members != members {
			t.Fatalf("%s: restored into group %+v, the first query's is %p; want %d members", name, dep.group, first.group, members)
		}
	}
	dep, _ = coordB.Deployment(names[negZero])
	if got := rowStrings(t, dep); !slices.Equal(got, negBefore) {
		t.Fatalf("restored %s reads %v, want the signs it read at Save: %v", names[negZero], got, negBefore)
	}
	pushEvents(engB, evs, half, len(evs)-1) // all but the final drain tick
	pushEvents(ref, evs, half, len(evs)-1)
	for i, name := range names {
		dep, _ := coordB.Deployment(name)
		requireEqualRows(t, "after restore "+name, snapshotSorted(t, dep), snapshotSorted(t, refs[i]))
	}
}

// resultPool is TestSharedResultDifferential's pool of standing queries, with
// "{a}" for the alias each deployment draws. Entries 0 and 1 are one result
// group, and so are 3 and 4: only aliases, ORDER BY/LIMIT and the order of
// conjuncts differ. 2 shares 0's selection layer but projects other columns,
// so it is a group of its own. 5 is ROWS-windowed, 6 NOW-windowed, 7
// unwindowed (a shared chain, but a result of its own), and 8 names a
// display, so it keeps its own result too. 9 and 10 are anchors: never
// stopped before the end, they keep the RANGE and ROWS windows populated, so
// every windowed query reads what a private compile deployed at the start
// reads.
var resultPool = []string{
	"SELECT {a}.a, {a}.s FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.a >= 1",
	"SELECT {a}.a, {a}.s FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.a >= 1 ORDER BY {a}.s DESC LIMIT 2",
	"SELECT {a}.s, {a}.b FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.a >= 1",
	"SELECT {a}.a + 1 AS e, {a}.s FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.a >= 1 AND {a}.b < 3",
	"SELECT {a}.a + 1 AS f, {a}.s FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.b < 3 AND {a}.a >= 1 ORDER BY {a}.s",
	"SELECT * FROM S1 {a} [ROWS 4] WHERE {a}.b < 3",
	"SELECT {a}.a, {a}.s FROM S1 {a} [NOW] WHERE {a}.a >= 1",
	"SELECT {a}.a, {a}.s FROM S1 {a} WHERE {a}.a >= 1",
	"SELECT {a}.a, {a}.s FROM S1 {a} [RANGE 2 SECONDS] WHERE {a}.a >= 1 OUTPUT TO board",
	"SELECT * FROM S1 {a} [RANGE 2 SECONDS]",
	"SELECT * FROM S1 {a} [ROWS 4]",
}

const (
	poolUnwindowed = 7
	poolAnchors    = 9 // entries from here on are anchors
)

// resultMember is one deployment of the differential.
type resultMember struct {
	name  string
	entry int
	dep   *Deployment
	twin  *Deployment // the unwindowed entry's private twin, deployed beside it
	fired int         // the member's Result OnChange count

	seen      []data.Tuple // the rows and fired at the last check
	seenFired int
	frozen    []data.Tuple // a stopped member's rows at Stop
}

// TestSharedResultDifferential is the result-group differential: random
// queries from resultPool deploy and stop between batches of one workload on
// a sharing coordinator, with one Save and Restore into a fresh engine
// mid-run. After every batch each live query must read what its private
// compile reads, and its Result's OnChange must have fired whenever the
// result moved; each stopped query must read what it read at Stop, with no
// OnChange since. At the end the engine and the registry return to baseline.
// The test fails if no result group ever had two members.
//
// Each run's seed also draws the batch after which the restart falls, so a
// sweep over -fuzzshard.seed moves the restart through the run.
func TestSharedResultDifferential(t *testing.T) {
	maxMembers := 0
	for run := int64(0); run < 4; run++ {
		maxMembers = max(maxMembers, sharedResultRun(t, *fuzzSeed+28000+run))
	}
	if maxMembers < 2 {
		t.Fatalf("no result group ever had two members (max %d); the differential ran vacuously", maxMembers)
	}
}

// sharedResultRun runs one seed of TestSharedResultDifferential and returns
// the largest result group it saw.
func sharedResultRun(t *testing.T, seed int64) (maxMembers int) {
	rng := rand.New(rand.NewSource(seed))
	evs := genWorkload(rng, fuzzSources()[:1], 480)
	aliases := []string{"t", "u", "v"}
	const batches = 12
	restartAt := rand.New(rand.NewSource(seed)).Intn(batches) // apart from rng, so the workload stays the seed's

	peng := stream.NewEngine("private", vtime.NewScheduler())
	refs := map[int]*Deployment{}
	for i, text := range resultPool {
		if i == poolUnwindowed {
			continue
		}
		dep, err := CompileStreamOpts(buildAs(t, text, "r"), Host{Engine: peng}, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = dep
		defer dep.Close()
	}
	path := filepath.Join(t.TempDir(), "coord.snap")
	eng := stream.NewEngine("shared", vtime.NewScheduler())
	sharing := NewSharing(eng)
	coord := NewCoordinator(Host{Engine: eng, Sharing: sharing}, path)

	var live, stopped []*resultMember
	hook := func(m *resultMember) {
		m.dep.Result.ChainOnChange(func() { m.fired++ })
		m.seen, m.seenFired = snapshotSorted(t, m.dep), m.fired
	}
	n := 0
	deploy := func(entry int) {
		t.Helper()
		n++
		m := &resultMember{name: fmt.Sprintf("q%d", n), entry: entry}
		alias := aliases[rng.Intn(len(aliases))]
		var err error
		if m.dep, err = coord.Deploy(m.name, buildAs(t, resultPool[entry], alias), CompileOptions{}); err != nil {
			t.Fatalf("seed %d deploy %q: %v", seed, resultPool[entry], err)
		}
		if entry == poolUnwindowed {
			if m.twin, err = CompileStreamOpts(buildAs(t, resultPool[entry], alias), Host{Engine: peng}, CompileOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		hook(m)
		live = append(live, m)
		for _, r := range sharing.results {
			maxMembers = max(maxMembers, r.members)
		}
	}
	stop := func(k int) {
		m := live[k]
		live = slices.Delete(live, k, k+1)
		rows := snapshotSorted(t, m.dep)
		if err := coord.Drop(m.name); err != nil {
			t.Fatal(err)
		}
		if m.twin != nil {
			m.twin.Close()
		}
		m.frozen, m.seenFired = rows, m.fired
		stopped = append(stopped, m)
	}
	check := func(when string) {
		t.Helper()
		for _, m := range live {
			want := m.twin
			if want == nil {
				want = refs[m.entry]
			}
			ctx := fmt.Sprintf("seed %d %s: %s %q", seed, when, m.name, resultPool[m.entry])
			rows := snapshotSorted(t, m.dep)
			requireEqualRows(t, ctx, rows, snapshotSorted(t, want))
			if m.fired == m.seenFired && !sameRows(rows, m.seen) {
				t.Fatalf("%s: the rows moved from %v to %v but OnChange never fired", ctx, m.seen, rows)
			}
			m.seen, m.seenFired = rows, m.fired
		}
		for _, m := range stopped {
			ctx := fmt.Sprintf("seed %d %s: stopped %s %q", seed, when, m.name, resultPool[m.entry])
			requireEqualRows(t, ctx, snapshotSorted(t, m.dep), m.frozen)
			if m.fired != m.seenFired {
				t.Fatalf("%s: OnChange fired %d times after Stop", ctx, m.fired-m.seenFired)
			}
		}
	}
	baseline := func(when string, eng *stream.Engine, s *Sharing) {
		t.Helper()
		in, _ := eng.Input("S1")
		if chains, attached := s.Stats(); chains != 0 || attached != 0 || len(s.results) != 0 ||
			in.Subscribers() != 0 || eng.Advancers() != 0 {
			t.Fatalf("seed %d %s: chains=%d attached=%d groups=%d subscribers=%d advancers=%d, want all 0",
				seed, when, chains, attached, len(s.results), in.Subscribers(), eng.Advancers())
		}
	}

	for e := poolAnchors; e < len(resultPool); e++ {
		deploy(e)
	}
	for range 4 {
		deploy(rng.Intn(poolAnchors))
	}
	for b := range batches {
		lo, hi := b*len(evs)/batches, (b+1)*len(evs)/batches
		if b == batches-1 {
			hi-- // keep the final drain tick: empty windows compare vacuously
		}
		pushEvents(eng, evs, lo, hi)
		pushEvents(peng, evs, lo, hi)
		check(fmt.Sprintf("batch %d", b))

		if b == restartAt {
			if _, err := coord.Save(); err != nil {
				t.Fatal(err)
			}
			saved := map[string][]data.Tuple{}
			for _, m := range live {
				saved[m.name] = snapshotSorted(t, m.dep)
			}
			coord.Close()
			baseline("after the restart's Close", eng, sharing)
			eng = stream.NewEngine("restarted", vtime.NewScheduler())
			sharing = NewSharing(eng)
			coord = NewCoordinator(Host{Engine: eng, Sharing: sharing}, path)
			if _, err := coord.Restore(); err != nil {
				t.Fatalf("seed %d restore: %v", seed, err)
			}
			for _, m := range live {
				var ok bool
				if m.dep, ok = coord.Deployment(m.name); !ok {
					t.Fatalf("seed %d: %s not restored", seed, m.name)
				}
				requireEqualRows(t, fmt.Sprintf("seed %d restored %s", seed, m.name), snapshotSorted(t, m.dep), saved[m.name])
				hook(m)
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			var candidates []int
			for i, m := range live {
				if m.entry < poolAnchors {
					candidates = append(candidates, i)
				}
			}
			if len(candidates) > 0 {
				stop(candidates[rng.Intn(len(candidates))])
			}
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			deploy(rng.Intn(poolAnchors))
		}
		check(fmt.Sprintf("after churn %d", b))
	}
	for len(live) > 0 {
		stop(len(live) - 1)
	}
	check("after the last stop")
	baseline("after the last stop", eng, sharing)
	return maxMembers
}
