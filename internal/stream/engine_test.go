package stream

import (
	"strings"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// MustRegister registers a statically known input; panics on error.
func (e *Engine) MustRegister(name string, schema *data.Schema) *Input {
	in, err := e.Register(name, schema)
	if err != nil {
		panic(err)
	}
	return in
}

// MustSnapshot is Snapshot for statically correct order keys.
func (m *Materialize) MustSnapshot(order []OrderSpec, limit int) []data.Tuple {
	out, err := m.Snapshot(order, limit)
	if err != nil {
		panic(err)
	}
	return out
}

func TestEngineRegisterAndPush(t *testing.T) {
	sched := vtime.NewScheduler()
	e := NewEngine("node1", sched)
	in := e.MustRegister("Temps", tempSchema())
	if _, err := e.Register("temps", tempSchema()); err == nil {
		t.Fatal("case-insensitive duplicate accepted")
	}
	col := NewCollector(tempSchema())
	in.Subscribe(col)
	if got, ok := e.Input("TEMPS"); !ok || got != in {
		t.Fatal("case-insensitive input lookup failed")
	}
	if _, ok := e.Input("missing"); ok {
		t.Fatal("lookup of a missing input succeeded")
	}
	in.Push(temp(1, "L1", 20))
	if col.Len() != 1 {
		t.Fatal("tuple lost")
	}
	if e.Name() != "node1" {
		t.Fatal("identity accessors")
	}
}

func TestEngineStampsZeroTimestamps(t *testing.T) {
	sched := vtime.NewScheduler()
	sched.RunUntil(5 * vtime.Second)
	e := NewEngine("n", sched)
	in := e.MustRegister("s", tempSchema())
	col := NewCollector(tempSchema())
	in.Subscribe(col)
	in.Push(data.NewTuple(0, data.Str("a"), data.Float(1)))
	if got := col.Snapshot()[0].TS; got != 5*vtime.Second {
		t.Fatalf("stamped ts = %v", got)
	}
	// explicit timestamps pass through
	in.Push(data.NewTuple(3, data.Str("a"), data.Float(1)))
	if got := col.Snapshot()[1].TS; got != 3 {
		t.Fatalf("explicit ts = %v", got)
	}
}

func TestEngineFanout(t *testing.T) {
	e := NewEngine("n", vtime.NewScheduler())
	in := e.MustRegister("s", tempSchema())
	a, b := NewCollector(tempSchema()), NewCollector(tempSchema())
	in.Subscribe(a)
	in.Subscribe(b)
	in.Push(temp(1, "L1", 20))
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("fanout failed")
	}
	// isolation between subscribers
	a.Snapshot()[0].Vals[0] = data.Str("X")
	if b.Snapshot()[0].Vals[0].AsString() != "L1" {
		t.Fatal("subscribers share tuple storage")
	}
}

func TestEngineAdvanceTicksWindows(t *testing.T) {
	e := NewEngine("n", vtime.NewScheduler())
	in := e.MustRegister("s", tempSchema())
	col := NewCollector(tempSchema())
	w := NewTimeWindow(col, 10*time.Second, 0)
	e.TrackWindow(w)
	in.Subscribe(w)
	in.Push(at(1, "a", 1))
	e.Advance(30 * vtime.Second)
	got := col.Snapshot()
	if len(got) != 2 || got[1].Op != data.Delete {
		t.Fatalf("advance: %v", got)
	}
}

func TestEngineDisplays(t *testing.T) {
	e := NewEngine("n", vtime.NewScheduler())
	d1 := e.MustDisplay("Lobby", tempSchema())
	d2 := e.MustDisplay("LOBBY", tempSchema())
	if d1 != d2 {
		t.Fatal("display identity not case-insensitive")
	}
	d1.Push(temp(1, "L1", 20))
	if d2.Len() != 1 {
		t.Fatal("display state lost")
	}
	// nil schema is lookup-or-create; a positionally identical schema with
	// different column names is compatible (values are positional).
	if _, err := e.Display("lobby", nil); err != nil {
		t.Fatalf("nil-schema lookup: %v", err)
	}
	renamed := data.NewSchema("x", data.Col("r", data.TString), data.Col("v", data.TFloat))
	if _, err := e.Display("lobby", renamed); err != nil {
		t.Fatalf("renamed-columns lookup: %v", err)
	}
	// A conflicting schema (different arity or column types) is an error,
	// not a silent reuse of the wrong rows.
	narrow := data.NewSchema("x", data.Col("r", data.TString))
	if _, err := e.Display("lobby", narrow); err == nil {
		t.Fatal("conflicting arity accepted")
	}
	retyped := data.NewSchema("x", data.Col("r", data.TString), data.Col("v", data.TInt))
	if _, err := e.Display("lobby", retyped); err == nil {
		t.Fatal("conflicting column type accepted")
	}
}

func TestMaterializeSnapshotOrderLimit(t *testing.T) {
	m := NewMaterialize(tempSchema())
	m.Push(temp(1, "b", 2))
	m.Push(temp(2, "a", 1))
	m.Push(temp(3, "c", 3))
	snap := m.MustSnapshot([]OrderSpec{{Col: "room"}}, -1)
	if snap[0].Vals[0].AsString() != "a" || snap[2].Vals[0].AsString() != "c" {
		t.Fatalf("asc = %v", snap)
	}
	desc := m.MustSnapshot([]OrderSpec{{Col: "temp", Desc: true}}, 2)
	if len(desc) != 2 || desc[0].Vals[1].AsFloat() != 3 {
		t.Fatalf("desc limit = %v", desc)
	}
	if _, err := m.Snapshot([]OrderSpec{{Col: "zz"}}, -1); err == nil {
		t.Fatal("bad order column accepted")
	}
}

func TestMaterializeMultiplicity(t *testing.T) {
	m := NewMaterialize(tempSchema())
	a := temp(1, "a", 1)
	m.Push(a)
	m.Push(a) // duplicate row: multiplicity 2
	if m.Len() != 1 {
		t.Fatalf("distinct rows = %d", m.Len())
	}
	snap := m.MustSnapshot(nil, -1)
	if len(snap) != 2 {
		t.Fatalf("multiset snapshot = %v", snap)
	}
	m.Push(a.Negate())
	if len(m.MustSnapshot(nil, -1)) != 1 {
		t.Fatal("multiplicity decrement failed")
	}
	m.Push(a.Negate())
	if m.Len() != 0 {
		t.Fatal("row not removed at zero")
	}
	// deleting a missing row is a no-op
	m.Push(temp(9, "zz", 0).Negate())
	if m.Len() != 0 {
		t.Fatal("phantom row")
	}
}

func TestMaterializeOnChange(t *testing.T) {
	m := NewMaterialize(tempSchema())
	fired := 0
	m.OnChange = func() { fired++ }
	m.Push(temp(1, "a", 1))
	if fired != 1 {
		t.Fatalf("OnChange fired %d times", fired)
	}
}

func TestMaterializeNullOrdering(t *testing.T) {
	m := NewMaterialize(tempSchema())
	m.Push(data.NewTuple(1, data.Str("a"), data.Null))
	m.Push(data.NewTuple(2, data.Str("b"), data.Float(1)))
	snap := m.MustSnapshot([]OrderSpec{{Col: "temp"}}, -1)
	if !snap[0].Vals[1].IsNull() {
		t.Fatalf("nulls should sort first asc: %v", snap)
	}
	desc := m.MustSnapshot([]OrderSpec{{Col: "temp", Desc: true}}, -1)
	if !desc[1].Vals[1].IsNull() {
		t.Fatalf("nulls should sort last desc: %v", desc)
	}
}

// A snapshot reads its rows in the one value order: without ORDER BY, INTs
// by value (1, 2, 10) and strings byte by byte ("L101" before "MR1"), and
// LIMIT keeps the least rows; under ORDER BY, NULLs first under ASC and last
// under DESC, and rows the ORDER BY ties in ascending order either way.
func TestSnapshotValueOrder(t *testing.T) {
	read := func(m *Materialize, order []OrderSpec, limit int) string {
		var rows []string
		for _, r := range m.MustSnapshot(order, limit) {
			cells := make([]string, len(r.Vals))
			for i, v := range r.Vals {
				cells[i] = v.String()
			}
			rows = append(rows, strings.Join(cells, ", "))
		}
		return strings.Join(rows, "; ")
	}
	ints := NewMaterialize(data.NewSchema("m", data.Col("n", data.TInt)))
	for _, n := range []int64{10, 2, 1} {
		ints.Push(data.NewTuple(0, data.Int(n)))
	}
	strs := NewMaterialize(data.NewSchema("m", data.Col("room", data.TString)))
	for _, s := range []string{"MR1", "L101"} {
		strs.Push(data.NewTuple(0, data.Str(s)))
	}
	m := NewMaterialize(tempSchema())
	for _, r := range []data.Tuple{temp(1, "c", 2), temp(2, "z", 1), temp(3, "a", 2),
		data.NewTuple(4, data.Str("b"), data.Null)} {
		m.Push(r)
	}
	for _, c := range []struct {
		m     *Materialize
		order []OrderSpec
		limit int
		want  string
	}{
		{ints, nil, -1, "1; 2; 10"},
		{ints, nil, 2, "1; 2"},
		{strs, nil, -1, "L101; MR1"},
		{m, []OrderSpec{{Col: "temp"}}, -1, "b, NULL; z, 1; a, 2; c, 2"},
		{m, []OrderSpec{{Col: "temp", Desc: true}}, -1, "a, 2; c, 2; z, 1; b, NULL"},
		{m, nil, 2, "a, 2; b, NULL"},
	} {
		if got := read(c.m, c.order, c.limit); got != c.want {
			t.Errorf("%s ORDER BY %v LIMIT %d: %s, want %s", c.m.Schema(), c.order, c.limit, got, c.want)
		}
	}
}

func TestMustSnapshotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMaterialize(tempSchema()).MustSnapshot([]OrderSpec{{Col: "nope"}}, -1)
}

// End-to-end single-node pipeline: window → filter → join → aggregate →
// materialize, mirroring the paper's workstation-monitoring query shape.
func TestEnginePipelineEndToEnd(t *testing.T) {
	e := NewEngine("pc1", vtime.NewScheduler())
	temps := e.MustRegister("Temps", tempSchema())

	seat := data.NewSchema("ss", data.Col("room", data.TString), data.Col("occupied", data.TBool))
	seat.IsStream = true
	seats := e.MustRegister("Seats", seat)

	outSchema, err := AggOutSchema(tempSchema().Concat(seat), []string{"t.room"},
		[]AggSpec{{Kind: AggAvg, Arg: expr.C("temp"), Alias: "avgtemp"}})
	if err != nil {
		t.Fatal(err)
	}
	mat := NewMaterialize(outSchema)
	agg, err := NewAggregate(mat, tempSchema().Concat(seat), []string{"t.room"},
		[]AggSpec{{Kind: AggAvg, Arg: expr.C("temp"), Alias: "avgtemp"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJoin(agg, tempSchema(), seat, []string{"t.room"}, []string{"ss.room"},
		expr.Bin{Op: expr.OpEq, L: expr.C("occupied"), R: expr.L(true)})
	if err != nil {
		t.Fatal(err)
	}
	wt := NewTimeWindow(j.Left(), time.Minute, 0)
	ws := NewTimeWindow(j.Right(), time.Minute, 0)
	e.TrackWindow(wt)
	e.TrackWindow(ws)
	temps.Subscribe(wt)
	seats.Subscribe(ws)

	seats.Push(data.NewTuple(vtime.Second, data.Str("L1"), data.Bool(true)))
	seats.Push(data.NewTuple(vtime.Second, data.Str("L2"), data.Bool(false)))
	temps.Push(at(2, "L1", 30))
	temps.Push(at(2, "L1", 20))
	temps.Push(at(2, "L2", 99)) // unoccupied: filtered by residual

	snap := mat.MustSnapshot([]OrderSpec{{Col: "room"}}, -1)
	if len(snap) != 1 {
		t.Fatalf("rows = %v", snap)
	}
	if snap[0].Vals[0].AsString() != "L1" || snap[0].Vals[1].AsFloat() != 25 {
		t.Fatalf("result = %v", snap)
	}
}
