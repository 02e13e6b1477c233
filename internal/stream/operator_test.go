package stream

import (
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

func tempSchema() *data.Schema {
	s := data.NewSchema("t",
		data.Col("room", data.TString),
		data.Col("temp", data.TFloat),
	)
	s.IsStream = true
	return s
}

func temp(ts int64, room string, v float64) data.Tuple {
	return data.NewTuple(vtime.Time(ts)*vtime.Second, data.Str(room), data.Float(v))
}

func TestFilterPolarity(t *testing.T) {
	col := NewCollector(tempSchema())
	f := NewFilter(col, expr.MustBind(
		expr.Bin{Op: expr.OpGt, L: expr.C("temp"), R: expr.L(30.0)}, tempSchema()))
	f.Push(temp(1, "L1", 35))
	f.Push(temp(2, "L1", 25))
	f.Push(temp(3, "L1", 35).Negate())
	got := col.Snapshot()
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if got[0].Op != data.Insert || got[1].Op != data.Delete {
		t.Fatalf("polarity: %v", got)
	}
	if f.Schema() != col.Schema() {
		t.Fatal("filter schema should be downstream schema")
	}
}

func TestProject(t *testing.T) {
	in := tempSchema()
	items := []ProjectItem{
		{Expr: expr.C("room")},
		{Expr: expr.Bin{Op: expr.OpMul, L: expr.C("temp"), R: expr.L(2.0)}, Alias: "double"},
	}
	out, err := OutSchema(in, items)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cols[0].Name != "room" || out.Cols[1].Name != "double" || out.Cols[1].Type != data.TFloat {
		t.Fatalf("out schema = %s", out)
	}
	col := NewCollector(out)
	p, err := NewProject(col, in, items)
	if err != nil {
		t.Fatal(err)
	}
	p.Push(temp(1, "L1", 21))
	got := col.Snapshot()
	if got[0].Vals[1].AsFloat() != 42 {
		t.Fatalf("project result = %v", got)
	}
	// arity mismatch with downstream
	if _, err := NewProject(col, in, items[:1]); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	// unbound expression
	if _, err := NewProject(col, in, []ProjectItem{{Expr: expr.C("x")}, {Expr: expr.C("y")}}); err == nil {
		t.Fatal("unbound projection accepted")
	}
	if _, err := OutSchema(in, []ProjectItem{{Expr: expr.C("nope")}}); err == nil {
		t.Fatal("OutSchema over missing column accepted")
	}
	// positional naming for computed columns
	out2, _ := OutSchema(in, []ProjectItem{{Expr: expr.Bin{Op: expr.OpAdd, L: expr.C("temp"), R: expr.L(1.0)}}})
	if out2.Cols[0].Name != "col1" {
		t.Fatalf("positional name = %q", out2.Cols[0].Name)
	}
}

func TestDistinctCounting(t *testing.T) {
	col := NewCollector(tempSchema())
	d := NewDistinct(col)
	a := temp(1, "L1", 20)
	d.Push(a)
	d.Push(a) // duplicate: suppressed
	if col.Len() != 1 {
		t.Fatalf("dup leaked: %v", col.Snapshot())
	}
	d.Push(a.Negate()) // 2→1: suppressed
	if col.Len() != 1 {
		t.Fatalf("early delete leaked")
	}
	d.Push(a.Negate()) // 1→0: emitted
	got := col.Snapshot()
	if len(got) != 2 || got[1].Op != data.Delete {
		t.Fatalf("snapshot = %v", got)
	}
	// deleting an unknown tuple is a no-op
	d.Push(temp(9, "zz", 1).Negate())
	if col.Len() != 2 {
		t.Fatal("unknown delete leaked")
	}
	if d.Schema() != col.Schema() {
		t.Fatal("schema passthrough")
	}
}

func TestCallbackAndCollector(t *testing.T) {
	n := 0
	cb := NewCallback(tempSchema(), func(data.Tuple) { n++ })
	cb.Push(temp(1, "L1", 20))
	if n != 1 || cb.Schema().Arity() != 2 {
		t.Fatal("callback")
	}
	c := NewCollector(tempSchema())
	c.Push(temp(1, "a", 1))
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("reset")
	}
}
