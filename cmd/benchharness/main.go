// Benchharness regenerates every experiment table (E1–E11) defined in
// DESIGN.md and recorded in EXPERIMENTS.md.
//
//	go run ./cmd/benchharness                          # all experiments
//	go run ./cmd/benchharness E2 E4                    # a subset
//	go run ./cmd/benchharness -json bench-tables.json  # machine-readable dump
//
// With -json, the selected experiment tables are also written to the given
// file. The per-PR microbenchmark baselines that used to ride along are
// history, kept in PERF.md; comparisons between two builds go through the
// repository benchmark (bench/README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"aspen/internal/experiments"
)

func main() {
	jsonPath := flag.String("json", "", "also write the tables as JSON to this file")
	flag.Parse()

	all := map[string]func() experiments.Table{
		"E1":  experiments.E1FederatedPartitioning,
		"E2":  experiments.E2InNetworkJoin,
		"E2R": experiments.E2RemoteFragment,
		"E3":  experiments.E3JoinPlacement,
		"E4":  experiments.E4InNetworkAgg,
		"E5":  experiments.E5RouteLatency,
		"E6":  experiments.E6IncrementalView,
		"E7":  experiments.E7StreamThroughput,
		"E8":  experiments.E8CostUnification,
		"E9":  experiments.E9EndToEnd,
		"E10": experiments.E10Alarms,
		"E11": experiments.E11QueryDensity,
	}
	order := []string{"E1", "E2", "E2R", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11"}

	want := flag.Args()
	if len(want) == 0 {
		want = order
	}
	var rep struct {
		Experiments []experiments.Table `json:"experiments"`
	}
	for _, id := range want {
		fn, ok := all[strings.ToUpper(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", id, strings.Join(order, ", "))
			os.Exit(2)
		}
		tbl := fn()
		fmt.Println(tbl.Format())
		rep.Experiments = append(rep.Experiments, tbl)
	}
	if *jsonPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out = append(out, '\n')
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}
