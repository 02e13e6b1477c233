package data

import (
	"strings"
	"testing"
)

func seatSensors() *Schema {
	return NewSchema("ss",
		Col("room", TString),
		Col("desk", TInt),
		Col("status", TString),
	)
}

// colIndex is ColIndex for a reference that must resolve.
func colIndex(t *testing.T, s *Schema, ref string) int {
	t.Helper()
	i, err := s.ColIndex(ref)
	if err != nil {
		t.Fatal(err)
	}
	return i
}

func TestSchemaColIndex(t *testing.T) {
	s := seatSensors()
	if i := colIndex(t, s, "desk"); i != 1 {
		t.Fatalf("desk index = %d", i)
	}
	if i := colIndex(t, s, "ss.room"); i != 0 {
		t.Fatalf("ss.room index = %d", i)
	}
	if _, err := s.ColIndex("nope"); err == nil {
		t.Fatal("expected error for missing column")
	}
	if _, err := s.ColIndex("other.room"); err == nil {
		t.Fatal("expected error for wrong qualifier")
	}
	if got := Col("room", TString).QName(); got != "room" {
		t.Fatalf("unqualified QName = %q", got)
	}
	// case-insensitive resolution
	if i := colIndex(t, s, "SS.ROOM"); i != 0 {
		t.Fatalf("case-insensitive index = %d", i)
	}
}

func TestSchemaAmbiguity(t *testing.T) {
	j := seatSensors().Concat(NewSchema("sa", Col("room", TString), Col("status", TString)))
	if _, err := j.ColIndex("room"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("want ambiguity error, got %v", err)
	}
	if i := colIndex(t, j, "sa.room"); i != 3 {
		t.Fatalf("sa.room = %d", i)
	}
	if i := colIndex(t, j, "desk"); i != 1 {
		t.Fatalf("desk still unambiguous: %d", i)
	}
}

func TestSchemaRenameAndProject(t *testing.T) {
	s := seatSensors().Rename("x")
	if s.Cols[0].Rel != "x" || s.Name != "x" {
		t.Fatalf("rename: %v", s)
	}
	p := s.Project([]int{2, 0})
	if p.Arity() != 2 || p.Cols[0].Name != "status" || p.Cols[1].Name != "room" {
		t.Fatalf("project: %v", p)
	}
}

func TestSchemaEqualAndString(t *testing.T) {
	a, b2 := seatSensors(), seatSensors()
	b2.IsStream = true
	if !strings.Contains(b2.String(), "[stream]") {
		t.Fatalf("String misses stream flag: %s", b2)
	}
	if !strings.Contains(a.String(), "ss.room STRING") {
		t.Fatalf("String = %s", a)
	}
}

func TestSplitQualified(t *testing.T) {
	if r, n := SplitQualified("a.b"); r != "a" || n != "b" {
		t.Fatalf("got %q %q", r, n)
	}
	if r, n := SplitQualified("b"); r != "" || n != "b" {
		t.Fatalf("got %q %q", r, n)
	}
}

func TestTupleOps(t *testing.T) {
	a := NewTuple(5, Int(1), Str("x"))
	b := a.Clone()
	b.Vals[0] = Int(9)
	if a.Vals[0].AsInt() != 1 {
		t.Fatal("Clone shares storage")
	}
	c := a.ConcatInto(nil, NewTuple(9, Bool(true)))
	if len(c.Vals) != 3 || c.TS != 9 {
		t.Fatalf("ConcatInto = %v", c)
	}
	n := a.Negate()
	if n.Op != Delete || a.Negate().Negate().Op != Insert {
		t.Fatal("Negate broken")
	}
	if c.String() == "" || n.String()[0] != '-' {
		t.Fatal("String rendering broken")
	}
}

func TestTupleDeltaPolarity(t *testing.T) {
	plus := NewTuple(0, Int(1))
	minus := plus.Negate()
	if plus.ConcatInto(nil, minus).Op != Delete {
		t.Fatal("(+)(-) should be -")
	}
	if minus.ConcatInto(nil, plus).Op != Delete {
		t.Fatal("(-)(+) should be -")
	}
	if plus.ConcatInto(nil, plus).Op != Insert {
		t.Fatal("(+)(+) should be +")
	}
	if minus.ConcatInto(nil, minus).Op != Insert {
		t.Fatal("(-)(-) should be +")
	}
}

func TestTupleKeyOn(t *testing.T) {
	a := NewTuple(0, Int(1), Str("x"), Float(2))
	b := NewTuple(99, Int(1), Str("y"), Float(2))
	if a.KeyOn([]int{0, 2}) != b.KeyOn([]int{0, 2}) {
		t.Fatal("KeyOn should ignore excluded columns and TS")
	}
	if a.Key() == b.Key() {
		t.Fatal("full keys should differ")
	}
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation(seatSensors())
	r.MustInsert(Str("L101"), Int(1), Str("free"))
	r.MustInsert(Str("L101"), Int(2), Str("busy"))
	r.MustInsert(Str("L102"), Int(1), Str("free"))
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Schema() != r.schema || !r.Schema().HasCol("ss.desk") || r.Schema().HasCol("nope") {
		t.Fatal("relation schema does not resolve its columns")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("MustInsert accepted a row of the wrong arity")
			}
		}()
		r.MustInsert(Int(1))
	}()
	if err := r.Insert(NewTuple(0, Int(1))); err == nil {
		t.Fatal("arity violation accepted")
	}
	if err := r.Insert(NewTuple(0, Int(1), Int(2), Int(3))); err == nil {
		t.Fatal("type violation accepted")
	}
	count := 0
	r.Scan(func(tu Tuple) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("Scan early-exit failed, count = %d", count)
	}
	var rows []Tuple
	r.Scan(func(tu Tuple) bool { rows = append(rows, tu); return true })
	if len(rows) != 3 || rows[1].Vals[1].AsInt() != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestRelationScanIsolation(t *testing.T) {
	r := NewRelation(NewSchema("t", Col("x", TInt)))
	r.MustInsert(Int(7))
	r.Scan(func(tu Tuple) bool {
		tu.Vals[0] = Int(99) // mutating the copy must not affect the relation
		return true
	})
	r.Scan(func(tu Tuple) bool {
		if tu.Vals[0].AsInt() != 7 {
			t.Fatal("Scan leaked internal storage")
		}
		return true
	})
}
