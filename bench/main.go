// Command bench is the repository's benchmark: four workloads that drive
// the system through its public entry points one sensing epoch at a time
// and report what a user of the running system sees — how stale the display
// is, how many readings per second fit, what a request costs — and, in a
// separate traced run, where each layer's time goes. See README.md.
//
//	go run . -workload building -seed 1            (from this directory)
//	go run . -workload all -trace 1
//	go run . -compare results/a.json results/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

var workloads = []string{"building", "pipeline-serial", "pipeline-remote", "query-churn"}

// baseEpochs are the measured epochs of a 25-second run on the machine the
// first baseline was taken on; -seconds scales all four by one factor.
var baseEpochs = map[string]int{
	"building": 230, "pipeline-serial": 3500, "pipeline-remote": 2200, "query-churn": 350,
}

var warmupEpochs = map[string]int{
	"building": 10, "pipeline-serial": 50, "pipeline-remote": 50, "query-churn": 20,
}

const (
	baseSeconds = 25
	// minEpochs keeps at least 11 samples beyond the 95th percentile.
	minEpochs = 220
	// setupsPerRun set-ups are timed in every run.
	setupsPerRun = 3
	// resultsDir holds trace files and the churn snapshot, beside the sources.
	resultsDir = "results"
)

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// epochs, when > 0, fixes the measured epoch count (tests); otherwise
	// it follows from seconds.
	epochs int
	// tiny shrinks every workload's population for the smoke test.
	tiny bool
	// setups is how many times set-up is run and timed: setup_s is their
	// median. Always setupsPerRun outside the tests.
	setups  int
	results string    // directory for trace files and snapshots
	out     io.Writer // human-readable report
}

// epochCounts returns the warm-up and measured epoch counts. A traced run
// measures a quarter of the epochs.
func (c *runConfig) epochCounts() (warmup, epochs int) {
	warmup = warmupEpochs[c.workload]
	epochs = c.epochs
	if epochs == 0 {
		epochs = baseEpochs[c.workload] * c.seconds / baseSeconds
		if epochs < minEpochs {
			epochs = minEpochs
		}
		if c.trace {
			epochs /= 4
		}
	}
	if c.tiny {
		warmup = 3
	}
	return warmup, epochs
}

// size picks a population: full for the benchmark, small for the smoke test.
func (c *runConfig) size(full, tiny int) int {
	if c.tiny {
		return tiny
	}
	return full
}

func (c *runConfig) newResult() *runResult {
	return &runResult{Workload: c.workload, Seed: c.seed, Trace: c.trace, Metrics: map[string]metricValue{}}
}

// phaseFunc opens a fresh instance of a workload on the run's seed, drives
// the warm-up and then epochs measured epochs through it, recording layer
// spans when tr is not nil, and tears it down.
type phaseFunc func(tr *tracer, res *runResult, epochs int) (*phase, error)

// measureUntraced sets the workload up setups times — the last instance goes
// on through the measured epochs and is returned last — and, in an untraced
// run, reports the end-to-end metrics.
func (c *runConfig) measureUntraced(res *runResult, run phaseFunc) (phases []*phase, err error) {
	_, epochs := c.epochCounts()
	var setups []float64
	for i := 1; i <= c.setups; i++ {
		n, r := 0, c.newResult()
		if i == c.setups {
			n, r = epochs, res
		}
		ph, err := run(nil, r, n)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
		setups = append(setups, ph.setup.Seconds())
	}
	base := phases[len(phases)-1]
	res.record(base, epochs)
	if !c.trace {
		res.setEndToEnd(base, setups)
	}
	return phases, nil
}

// finishTrace writes the spans and prints the heaviest layers by self time.
func (c *runConfig) finishTrace(tr *tracer) error {
	fmt.Fprintf(c.out, "  top layers by self time:")
	for _, l := range tr.top(3) {
		fmt.Fprintf(c.out, "  %s %.1f ms", l.name, ms(l.self()))
	}
	fmt.Fprintln(c.out)
	if err := os.MkdirAll(c.results, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(c.results, "trace-"+c.workload+".jsonl"))
}

// runWorkload runs one workload once.
func runWorkload(c *runConfig) (*runResult, error) {
	var res *runResult
	var err error
	switch c.workload {
	case "building":
		res, err = runBuilding(c)
	case "pipeline-serial":
		res, err = runPipeline(c, false)
	case "pipeline-remote":
		res, err = runPipeline(c, true)
	case "query-churn":
		res, err = runChurn(c)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v, or all)", c.workload, workloads)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.workload, err)
	}
	return res, res.complete()
}

// report prints every metric of the run by name with its unit.
func report(w io.Writer, r *runResult) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "%s seed %d: %s, %d epochs (%d latency samples), %d source tuples, %d result rows\n",
		r.Workload, r.Seed, mode, r.Epochs, r.Samples, r.Tuples, r.Rows)
	if r.Traced != nil {
		fmt.Fprintf(w, "  last result %s untraced, %s in the traced phase (fresh instance, same seed)\n", r.Digest, r.Traced.Digest)
	}
	tbl := endToEnd
	if r.Trace {
		tbl = perLayer
	}
	for _, d := range tbl {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for name, v := range r.Diagnostics {
		fmt.Fprintf(w, "  %-40s %16.4f %s (diagnostic, no bound)\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "  %-40s %16.6f ratio (%d of %d operations)\n", "failed_ops_share",
		ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// driverLine is the object the benchmark contract wants as the last line
// of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+fmt.Sprint(workloads)+" or all")
	seed := fs.Int64("seed", 1, "workload seed: drives occupancy and temperature churn, never sizes")
	seconds := fs.Int("seconds", baseSeconds, "nominal measured seconds; scales every workload's epoch count")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and results/trace-<workload>.jsonl")
	outPath := fs.String("out", "", "append the runs to this JSON file, created with its provenance if missing")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	// -out appends to an existing file, so that two files can be filled
	// alternately, run by run, and host drift lands on both sides.
	file := &resultFile{Provenance: provenance()}
	if *outPath != "" {
		if prev, err := readResultFile(*outPath); err == nil {
			file = prev
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	first := len(file.Runs)
	for _, name := range names {
		c := &runConfig{workload: name, seed: *seed, seconds: *seconds, trace: *trace != 0,
			setups: setupsPerRun, results: resultsDir, out: stdout}
		res, err := runWorkload(c)
		if err != nil {
			return err
		}
		report(stdout, res)
		file.Runs = append(file.Runs, res)
	}
	if *outPath != "" {
		if err := file.write(*outPath); err != nil {
			return err
		}
	}
	failed := 0
	for _, r := range file.Runs[first:] {
		failed += r.Failed
	}
	if len(names) == 1 {
		last := file.Runs[first]
		line, err := json.Marshal(driverLine{Correct: last.Failed == 0, Attempted: last.Attempted,
			Failed: last.Failed, Metrics: last.Metrics})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed their checks", failed)
	}
	return nil
}
