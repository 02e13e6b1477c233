package plan

import (
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// wireTestPlan builds one plan using every shippable node kind: windowed
// scans, select, project (computed column), equi-join with residual,
// grouped aggregate with HAVING, distinct.
func wireTestPlan(t *testing.T) Node {
	t.Helper()
	s1 := data.NewSchema("S1", data.Col("a", data.TInt), data.Col("b", data.TInt))
	s1.IsStream = true
	s2 := data.NewSchema("S2", data.Col("x", data.TInt), data.Col("y", data.TInt))
	s2.IsStream = true
	l := NewScan("S1", "t1", s1, &sql.WindowSpec{Kind: sql.WindowRange, Range: 5 * time.Second}, 10, false)
	r := NewScan("S2", "t2", s2, nil, 10, false)
	var fl Node = &Select{In: l, Pred: expr.Bin{Op: expr.OpGe, L: expr.C("t1.a"), R: expr.L(0)}}
	j := NewJoin(fl, r, []string{"t1.a"}, []string{"t2.x"},
		expr.Bin{Op: expr.OpNe, L: expr.C("t1.b"), R: expr.L(99)})
	p, err := NewProject(j, []stream.ProjectItem{
		{Expr: expr.C("t1.a")},
		{Expr: expr.Bin{Op: expr.OpAdd, L: expr.C("t1.b"), R: expr.L(1)}, Alias: "b1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregate(p, []string{"t1.a"},
		[]stream.AggSpec{{Kind: stream.AggCount, Alias: "n"},
			{Kind: stream.AggSum, Arg: expr.C("b1"), Alias: "s"}},
		expr.Bin{Op: expr.OpGe, L: expr.C("n"), R: expr.L(1)})
	if err != nil {
		t.Fatal(err)
	}
	return &Distinct{In: agg}
}

// TestWireReplicaRoundtrip ships the all-kinds plan through the wire spec
// and drives the rebuilt replica: the decoded pipeline must produce the
// same rows as a locally compiled one.
func TestWireReplicaRoundtrip(t *testing.T) {
	root := wireTestPlan(t)
	spec, err := encodeReplica(root, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	var results []data.Tuple
	heads, advs, _, err := (*SensorHosts)(nil).DeployReplica(spec, 0, nil, func(ts []data.Tuple) error {
		for _, tu := range ts {
			results = append(results, tu.Clone())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(heads) != 2 {
		t.Fatalf("heads = %d, want one per scan", len(heads))
	}
	if len(advs) != 1 {
		t.Fatalf("advs = %d, want the one windowed scan", len(advs))
	}

	// Local reference pipeline over the same tree.
	col := stream.NewCollector(root.Schema())
	var refHeads []stream.Operator
	c := &compiler{
		track: func(stream.Advancer) {},
		scanHead: func(x *Scan, head stream.Operator) error {
			refHeads = append(refHeads, head)
			return nil
		},
	}
	if err := c.compile(root, col, nil); err != nil {
		t.Fatal(err)
	}

	mk := func(vals ...int64) data.Tuple {
		vs := make([]data.Value, len(vals))
		for i, v := range vals {
			vs[i] = data.Int(v)
		}
		return data.Tuple{Vals: vs, TS: vtime.Time(time.Second)}
	}
	for i := int64(0); i < 6; i++ {
		heads["s0"].Push(mk(i%3, i).Clone())
		refHeads[0].Push(mk(i%3, i).Clone())
		heads["s1"].Push(mk(i%3, i*10).Clone())
		refHeads[1].Push(mk(i%3, i*10).Clone())
	}
	want := col.Snapshot()
	sortByKey(want)
	sortByKey(results)
	if len(results) != len(want) || len(want) == 0 {
		t.Fatalf("replica emitted %d rows, reference %d", len(results), len(want))
	}
	for i := range want {
		if !results[i].EqualVals(want[i]) {
			t.Fatalf("row %d: replica %v, reference %v", i, results[i], want[i])
		}
	}
}

// TestWireReplicaTwoPhase: a spec with a partial cap builds the
// PartialAggregate stage (partial-schema rows come back).
func TestWireReplicaTwoPhase(t *testing.T) {
	s1 := data.NewSchema("S1", data.Col("a", data.TInt), data.Col("b", data.TInt))
	s1.IsStream = true
	scan := NewScan("S1", "t1", s1, nil, 10, false)
	specs := []stream.AggSpec{{Kind: stream.AggSum, Arg: expr.C("t1.b"), Alias: "s"}}
	agg, err := NewAggregate(scan, nil, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := encodeReplica(scan, agg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []data.Tuple
	heads, _, _, err := (*SensorHosts)(nil).DeployReplica(spec, 0, nil, func(ts []data.Tuple) error {
		for _, tu := range ts {
			got = append(got, tu.Clone())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	heads["s0"].Push(data.NewTuple(1, data.Int(1), data.Int(7)))
	partial, err := stream.AggPartialSchema(scan.Schema(), nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got[len(got)-1].Vals) != partial.Arity() {
		t.Fatalf("partial rows %v, want arity %d", got, partial.Arity())
	}
}

// fakeNode exercises the encode fail-closed path.
type fakeNode struct{ Distinct }

func TestWireEncodeUnknownNode(t *testing.T) {
	s1 := data.NewSchema("S1", data.Col("a", data.TInt))
	inner := NewScan("S1", "t", s1, nil, 1, false)
	if _, err := encodeReplica(&fakeNode{Distinct{In: inner}}, nil, nil); err == nil {
		t.Fatal("unknown node kind must fail to encode")
	}
	if _, err := encodeReplica(&Select{In: &fakeNode{Distinct{In: inner}}}, nil, nil); err == nil {
		t.Fatal("unknown child must fail to encode")
	}
}

func TestWireDecodeMalformed(t *testing.T) {
	cases := map[string]wireNode{
		"unknown kind":   {Kind: wireKind(99)},
		"scan no schema": {Kind: wireScan, Input: "S1"},
		"missing child":  {Kind: wireSelect},
		"join one child": {Kind: wireJoin, Children: []wireNode{{Kind: wireScan}}},
	}
	for name, w := range cases {
		if _, err := decodeNode(w); err == nil {
			t.Fatalf("%s: decode must fail", name)
		}
	}
}
