package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// resultFile is what -out writes: the runs and where they came from.
type resultFile struct {
	Provenance map[string]string `json:"provenance"`
	Runs       []*runResult      `json:"runs"`
}

// provenance records what produced a result file.
func provenance() map[string]string {
	p := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     "unknown",
		"cpu":        "unknown",
	}
	// The driver's checkout is not a git repository; a developer's is.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p["commit"] = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err // bare, so callers can tell a missing file
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readBenchmarkSpec finds BENCHMARK.json beside this directory, wherever
// the command was started from.
func readBenchmarkSpec() (*benchmarkSpec, error) {
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var s benchmarkSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// compareFiles prints, per workload and end-to-end metric, the medians of
// the two files' untraced runs, b over a with its base, and a verdict under
// the metric's bound in BENCHMARK.json:
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  either side's own spread (max − min over median) is wider
//	            than the bound, so the difference cannot be told from noise —
//	            unless the two sides' runs do not overlap at all
func compareFiles(w io.Writer, pathA, pathB string) error {
	spec, err := readBenchmarkSpec()
	if err != nil {
		return err
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (commit %s)\nb: %s (commit %s)\n", pathA, a.Provenance["commit"], pathB, b.Provenance["commit"])
	fmt.Fprintf(w, "%-16s %-16s %5s %12s %12s %9s %8s %8s  %s\n",
		"workload", "metric", "runs", "a median", "b median", "b/a", "spread a", "spread b", "verdict")
	regressed := 0
	for _, wl := range workloads {
		// The two sides must have done the same work: the same seeds, each
		// over the same number of epochs.
		if ra, rb := runsOf(a, wl), runsOf(b, wl); ra != rb {
			return fmt.Errorf("%s: the sides' runs differ (seed×epochs): a has %s, b has %s", wl, ra, rb)
		}
		for _, m := range spec.EndToEnd {
			va, vb := valuesOf(a, wl, m.Name), valuesOf(b, wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			// worse is the share by which b's median is worse than a's.
			worse := mb/ma - 1
			allBetter, allWorse := vb[len(vb)-1] < va[0], vb[0] > va[len(va)-1]
			if m.Better == "higher" {
				worse = 1 - mb/ma
				allBetter, allWorse = allWorse, allBetter
			}
			noisy := sa > m.Bound || sb > m.Bound
			verdict := "ok"
			switch {
			case noisy && !allBetter && !(allWorse && worse > m.Bound):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-16s %-16s %2d/%-2d %12.4f %12.4f %8.4fx %7.1f%% %7.1f%%  %s\n",
				wl, m.Name, len(va), len(vb), ma, mb, mb/ma, 100*sa, 100*sb, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bounds", regressed)
	}
	return nil
}

// runsOf lists the seed and epoch count of a file's untraced runs of one
// workload, in order.
func runsOf(f *resultFile, workload string) string {
	var out []string
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, fmt.Sprintf("%d×%d", r.Seed, r.Epochs))
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// valuesOf collects a metric's values over a file's untraced runs of one
// workload, sorted.
func valuesOf(f *resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	median(out) // sorts
	return out
}

// spread is (max − min) over the median of sorted values.
func spread(sorted []float64) float64 {
	if len(sorted) < 2 {
		return 0
	}
	return ratio(sorted[len(sorted)-1]-sorted[0], median(sorted))
}
