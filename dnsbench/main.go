// Command dnsbench is the repository's benchmark: it drives the DNS from
// outside through its public entry points on one named workload, checks
// the outputs, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) switches on the program's telemetry and flight recorder
// and reports the per-layer metrics. See README.md for the workloads and
// how to read the output; run.sh builds and runs it from the repository
// root:
//
//	bash dnsbench/run.sh --workload channel-serial --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*result, error){
	"channel-serial": func(cfg runConfig) (*result, error) { return runSolver(cfg, channelSerial) },
	"channel-tcp":    func(cfg runConfig) (*result, error) { return runSolver(cfg, channelTCP) },
	"serve-mix":      runServe,
}

// runConfig is what every workload runner receives.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// scratch is a private directory for run stores and checkpoints,
	// removed when the run ends.
	scratch string
	spans   *spans
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
	seed := flag.Int64("seed", 1, "workload seed: generates the initial-condition seeds and the serve-mix job sequence")
	seconds := flag.Float64("seconds", 30, "measured seconds per run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "dnsbench-out"), "directory for span files and scratch state")
	flag.Parse()

	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "dnsbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), " | "))
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *traced == 1, *out); err != nil {
		fmt.Fprintf(os.Stderr, "dnsbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and prints the result line.
func run(workload string, seed int64, seconds float64, traced bool, out string) error {
	scratch := filepath.Join(out, fmt.Sprintf("scratch-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg := runConfig{seed: seed, seconds: seconds, traced: traced, scratch: scratch}
	if traced {
		cfg.spans = newSpans()
	}
	fmt.Printf("dnsbench workload=%s seed=%d seconds=%g trace=%v\n", workload, seed, seconds, traced)
	t0 := time.Now()
	res, err := workloads[workload](cfg)
	if err != nil {
		return err
	}
	fmt.Printf("run took %.1fs\n", time.Since(t0).Seconds())
	if err := cfg.spans.write(filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", workload, seed)), workload, seed); err != nil {
		return err
	}
	return printResult(os.Stdout, res, traced)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric of the run's list as a readable line,
// then the JSON result line. A metric the runner did not set is a bug in
// the benchmark, reported as an error rather than printed as zero.
func printResult(w io.Writer, res *result, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	} else {
		failedFrac := float64(res.failed) / float64(max(res.attempted, 1))
		res.values["ok_frac"] = 1 - failedFrac
		fmt.Fprintf(w, "%-28s %.6g frac\n", "failed_frac", failedFrac)
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%-28s %.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = metricValue{v, d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0 && res.attempted > 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
