// Command twigperf is the twigdb benchmark: one client goroutine drives the
// public API in a closed loop on a file-backed database loaded with XMark
// text generated from a seed. See README.md for the workloads, the metrics
// and how the bounds in BENCHMARK.json were set.
//
//	twigperf --workload read-warm --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run records spans around every layer
// call, writes them to .twigperf/ and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart is read before anything else runs, so setup_s can be checked
// against the time the process has been alive.
var processStart = time.Now()

// gomaxprocs is the number of Ps the benchmark runs with. One client drives
// the database in a closed loop; on a small shared host a second P mostly
// lets the collector and the background checkpointer wait on a CPU the
// neighbours hold, which made the same code's read rate spread twice as
// widely across runs (see README.md).
const gomaxprocs = 1

func main() {
	runtime.GOMAXPROCS(gomaxprocs)
	cfg := config{scale: defaultScale, workDir: ".twigperf"}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "read-warm, paper-disk or update-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated XMark document and of the lookups")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "twigperf: need --workload one of %v, --trace 0|1, --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twigperf:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	envelope map[string]any
	notes    []string
}

func printResult(w *os.File, res *result) {
	env, _ := json.Marshal(res.envelope)
	fmt.Fprintf(w, "# envelope %s\n", env)
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "# metric %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}
