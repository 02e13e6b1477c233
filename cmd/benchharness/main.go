// Benchharness regenerates the experiment tables of internal/experiments
// (E1–E6, E8–E10; the package doc says what each reproduces).
//
//	go run ./cmd/benchharness                          # all experiments
//	go run ./cmd/benchharness E2 E4                    # a subset
//	go run ./cmd/benchharness -json bench-tables.json  # machine-readable dump
//
// With -json, the selected experiment tables are also written to the given
// file. An unknown ID exits 2 and lists the known ones. The per-PR
// microbenchmark baselines that used to ride along are history, kept in
// PERF.md; comparisons between two builds go through the repository
// benchmark (bench/README.md).
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

	byID := map[string]func() experiments.Table{}
	var ids []string
	for _, e := range experiments.All {
		byID[e.ID] = e.Run
		ids = append(ids, e.ID)
	}
	want := flag.Args()
	if len(want) == 0 {
		want = ids
	}
	var rep struct {
		Experiments []experiments.Table `json:"experiments"`
	}
	for _, id := range want {
		run, ok := byID[strings.ToUpper(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", id, strings.Join(ids, ", "))
			os.Exit(2)
		}
		tbl := run()
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
