package catalog

import (
	"strings"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/sql"
)

// mustView parses a CREATE VIEW statement.
func mustView(t *testing.T, src string) *sql.CreateView {
	t.Helper()
	st, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sql.CreateView)
}

func tempSource() *Source {
	return &Source{
		Name: "Temperature",
		Kind: KindSensorStream,
		Schema: data.NewSchema("Temperature",
			data.Col("mote", data.TInt),
			data.Col("temp", data.TFloat)),
		Rate:         10,
		SamplePeriod: time.Second,
	}
}

func TestSourceRegistry(t *testing.T) {
	c := New()
	c.MustAddSource(tempSource())
	if _, ok := c.Source("temperature"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := c.Source("TEMPERATURE"); !ok {
		t.Fatal("uppercase lookup failed")
	}
	if err := c.AddSource(tempSource()); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := c.AddSource(&Source{Name: "x"}); err == nil {
		t.Fatal("schema-less source accepted")
	}
	if err := c.AddSource(&Source{Schema: data.NewSchema("y")}); err == nil {
		t.Fatal("nameless source accepted")
	}
	c.MustAddSource(&Source{Name: "Alpha", Kind: KindTable,
		Schema: data.NewSchema("Alpha", data.Col("a", data.TInt))})
	all := c.Sources()
	if len(all) != 2 || all[0].Name != "Alpha" {
		t.Fatalf("Sources = %v", all)
	}
}

func TestViewRegistry(t *testing.T) {
	c := New()
	v := mustView(t, `CREATE VIEW OpenMachineInfo AS (SELECT ss.room FROM SeatSensors ss)`)
	if err := c.AddView(v); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.View("openmachineinfo"); !ok {
		t.Fatal("view lookup failed")
	}
	if err := c.AddView(v); err == nil {
		t.Fatal("duplicate view accepted")
	}
	// name clash with a source
	c.MustAddSource(tempSource())
	clash := mustView(t, `CREATE VIEW Temperature AS (SELECT t.mote FROM T t)`)
	if err := c.AddView(clash); err == nil {
		t.Fatal("view/source clash accepted")
	}
	if err := c.AddSource(&Source{Name: "OpenMachineInfo",
		Schema: data.NewSchema("OpenMachineInfo", data.Col("room", data.TString))}); err == nil {
		t.Fatal("source/view clash accepted")
	}
}

func TestStats(t *testing.T) {
	c := New()
	st := c.Stats()
	if st.NetworkDiameter != 6 || st.EpochPeriod != time.Second {
		t.Fatalf("defaults = %+v", st)
	}
	st.NetworkDiameter = 10
	c.SetStats(st)
	if c.Stats().NetworkDiameter != 10 {
		t.Fatal("SetStats failed")
	}
}

func TestCardinality(t *testing.T) {
	s := tempSource()
	if s.Cardinality() != 10 {
		t.Fatalf("stream cardinality = %v", s.Cardinality())
	}
	rel := data.NewRelation(data.NewSchema("t", data.Col("a", data.TInt)))
	rel.MustInsert(data.Int(1))
	rel.MustInsert(data.Int(2))
	tab := &Source{Name: "t", Kind: KindTable, Schema: rel.Schema(), Table: rel}
	if tab.Cardinality() != 2 {
		t.Fatalf("table cardinality = %v", tab.Cardinality())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[SourceKind]string{
		KindSensorStream: "sensor-stream", KindStream: "stream",
		KindTable: "table", KindWeb: "web",
	} {
		if k.String() != want {
			t.Errorf("%d = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(SourceKind(9).String(), "kind") {
		t.Error("unknown kind should format")
	}
}
