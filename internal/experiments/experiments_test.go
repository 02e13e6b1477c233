package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// These tests pin the *shape* of every experiment result — the paper claim
// each table reproduces (see the package doc) — so a regression in any
// engine that would flip a paper claim fails CI, not just the benchmark
// report.

func cell(t *testing.T, tab Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d): %+v", tab.ID, row, col, tab.Rows)
	}
	return tab.Rows[row][col]
}

func num(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(t, tab, row, col), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", tab.ID, row, col, cell(t, tab, row, col))
	}
	return v
}

func TestE1ChoosesInNetworkJoin(t *testing.T) {
	tab := E1FederatedPartitioning()
	if len(tab.Rows) < 3 {
		t.Fatalf("expected several partitions: %+v", tab.Rows)
	}
	// alternatives are sorted by unified cost; the winner is first and must
	// be the pushed join
	if !strings.Contains(cell(t, tab, 0, 0), "in-network-join") {
		t.Fatalf("winner = %q", cell(t, tab, 0, 0))
	}
	if cell(t, tab, 0, 4) != "<==" {
		t.Fatalf("winner not marked: %+v", tab.Rows[0])
	}
	// the all-stream baseline must be strictly worse
	for _, r := range tab.Rows {
		if strings.HasPrefix(r[0], "all-stream") {
			winner := num(t, tab, 0, 3)
			all, _ := strconv.ParseFloat(r[3], 64)
			if all <= winner {
				t.Fatalf("all-stream (%v) should cost more than the join (%v)", all, winner)
			}
		}
	}
}

func TestE2InNetworkAlwaysWinsAndScalesWithOccupancy(t *testing.T) {
	tab := E2InNetworkJoin()
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		base, opt := num(t, tab, i, 2), num(t, tab, i, 3)
		if opt > base {
			t.Fatalf("row %d: optimized (%v) worse than at-base (%v)", i, opt, base)
		}
	}
	// within each grid size, the absolute saving shrinks as occupancy grows
	for g := 0; g < 3; g++ {
		low := num(t, tab, g*3, 3) / num(t, tab, g*3, 2)
		high := num(t, tab, g*3+2, 3) / num(t, tab, g*3+2, 2)
		if low >= high {
			t.Fatalf("grid %d: relative cost should rise with occupancy (%v vs %v)", g, low, high)
		}
	}
}

func TestE3OptimizedMatchesBestFixedPolicy(t *testing.T) {
	tab := E3JoinPlacement()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %+v", tab.Rows)
	}
	results := map[string]float64{}
	msgs := map[string]float64{}
	for i, r := range tab.Rows {
		msgs[r[0]] = num(t, tab, i, 1)
		results[r[0]] = num(t, tab, i, 3)
	}
	// identical result counts across policies (correctness)
	for pol, n := range results {
		if n != results["optimized"] {
			t.Fatalf("%s produced %v results, optimized %v", pol, n, results["optimized"])
		}
	}
	bestFixed := msgs["at-left"]
	for _, pol := range []string{"at-right", "at-base"} {
		if msgs[pol] < bestFixed {
			bestFixed = msgs[pol]
		}
	}
	if msgs["optimized"] > bestFixed*1.05 {
		t.Fatalf("optimized (%v msgs) worse than best fixed (%v)", msgs["optimized"], bestFixed)
	}
}

func TestE4SavingGrowsWithDiameter(t *testing.T) {
	tab := E4InNetworkAgg()
	prev := 0.0
	for i := range tab.Rows {
		tag, central := num(t, tab, i, 2), num(t, tab, i, 3)
		if tag >= central {
			t.Fatalf("row %d: TAG (%v) >= centralized (%v)", i, tag, central)
		}
		saving := central / tag
		if saving < prev {
			t.Fatalf("saving should grow with network size: %v after %v", saving, prev)
		}
		prev = saving
	}
}

func TestE5RouteLatencyUnderEpoch(t *testing.T) {
	tab := E5RouteLatency()
	for i, r := range tab.Rows {
		// parse the duration strings; anything at millisecond scale or
		// below is far under a 1 s sensing epoch
		if strings.Contains(r[2], "s") && !strings.Contains(r[2], "µs") &&
			!strings.Contains(r[2], "ms") && !strings.Contains(r[2], "ns") {
			t.Fatalf("row %d: route query %q too slow", i, r[2])
		}
	}
}

func TestE6IncrementalBeatsRecompute(t *testing.T) {
	if tab := E6IncrementalView(); len(tab.Rows) != len(e6Sizes) {
		t.Fatalf("E6 has %d rows, want one per size %v", len(tab.Rows), e6Sizes)
	}
	// work is one rebuild's derivations over one incremental change's: exact,
	// where the wall-clock speedup beside it is two sub-millisecond loops.
	var work []float64
	for _, n := range e6Sizes {
		// The 2x floor is on the clock. One preemption under package-parallel
		// load outlasts either loop, so a low reading gets a few more tries:
		// the floor must hold for the best of them.
		var r e6Result
		speedup := 0.0
		for try := 0; try < 5 && speedup < 2; try++ {
			r = e6Run(n)
			speedup = max(speedup, float64(r.rec)/float64(r.inc))
		}
		if speedup < 2 {
			t.Fatalf("n=%d: incremental speedup only %.1fx", n, speedup)
		}
		work = append(work, float64(r.recDerivs)/(float64(r.churnDerivs)/(2*e6Ops)))
	}
	// the gap must widen with graph size
	if last := len(work) - 1; work[0] >= work[last] {
		t.Fatalf("recompute/incremental work should grow with size: %.1fx at n=%d, %.1fx at n=%d",
			work[0], e6Sizes[0], work[last], e6Sizes[last])
	}
}

// The all-stream column must be the cost of the alternative the optimizer
// names all-stream, not of some other partition.
func TestE8UnifiedCostScalesWithRadioPrice(t *testing.T) {
	tab := E8CostUnification()
	prevChosen, prevAll := -1.0, -1.0
	for i := range tab.Rows {
		want := ""
		for _, a := range e8Optimize(e8Radios[i].lat, e8Radios[i].energy).Alternatives {
			if strings.HasPrefix(a.Desc, "all-stream") {
				want = f3(a.Unified)
			}
		}
		if got := cell(t, tab, i, 4); got != want {
			t.Errorf("row %d: all-stream cost %s, want %s (the all-stream alternative's)", i, got, want)
		}
		chosen, all := num(t, tab, i, 3), num(t, tab, i, 4)
		if chosen > all {
			t.Fatalf("row %d: chosen (%v) worse than all-stream (%v)", i, chosen, all)
		}
		if chosen < prevChosen || all < prevAll {
			t.Fatalf("unified costs must rise with radio price: %+v", tab.Rows)
		}
		prevChosen, prevAll = chosen, all
	}
}

func TestE9EndToEndScenario(t *testing.T) {
	tab := E9EndToEnd()
	get := func(metric string) string {
		for _, r := range tab.Rows {
			if r[0] == metric {
				return r[1]
			}
		}
		t.Fatalf("metric %q missing: %+v", metric, tab.Rows)
		return ""
	}
	if !strings.HasPrefix(get("occupancy detection latency"), "1 ") {
		t.Fatalf("detection latency = %q", get("occupancy detection latency"))
	}
	if get("visitor located at") != "hall2" {
		t.Fatalf("located at %q", get("visitor located at"))
	}
	if !strings.Contains(get("route"), "hall2") {
		t.Fatalf("route = %q", get("route"))
	}
	if get("dead motes") != "0" {
		t.Fatalf("dead motes = %q", get("dead motes"))
	}
}

func TestE10AlarmsAndAccounting(t *testing.T) {
	tab := E10Alarms()
	for _, r := range tab.Rows {
		switch r[0] {
		case "alarm detection latency":
			if !strings.HasPrefix(r[1], "1 ") && !strings.HasPrefix(r[1], "2 ") {
				t.Fatalf("alarm latency = %q", r[1])
			}
		case "marie's CPU across machines":
			if !strings.HasPrefix(r[1], "0.75") {
				t.Fatalf("cross-machine accounting = %q", r[1])
			}
		}
	}
}

func TestTableFormat(t *testing.T) {
	tab := Table{ID: "X", Title: "demo", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: "n"}
	out := tab.Format()
	for _, want := range []string{"== X: demo ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format = %q", out)
		}
	}
}
