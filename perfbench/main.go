// Command perfbench is the repository benchmark.  One invocation runs one
// named workload against the simulator's packages for a wall-clock
// budget, checks every output against the workload's correctness gate,
// and prints a readable report followed by one JSON line: the end-to-end
// metrics of the untraced passes, or with --trace 1 the per-layer
// metrics of a traced pass.
//
// From the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload serve-mix --seed 1 --trace 1 --out new.json
//	.bench_build/perfbench compare old.json new.json
//
// README.md in this directory describes the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	_ "comb/internal/method/all" // workloads name their methods through the registry
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// options are one invocation's settings, shared by every workload.
type options struct {
	Root    string  // checkout root holding results/ and testdata/
	Work    string  // scratch directory for temporary result stores
	Seed    uint64  // input seed
	Seconds float64 // wall-clock budget of the timed passes
	Trace   bool    // add a traced pass and report per-layer metrics
	Procs   int     // engine workers and HTTP clients: GOMAXPROCS, at most nproc
}

// workloads builds each named workload at benchmark scale.
var workloads = map[string]func(options) workload{
	"paper-sweep": func(o options) workload { return newPaperSweep(o, []string{"8", "9", "10", "11"}) },
	"ranks":       func(o options) workload { return newRanks(o, benchRanks) },
	"serve-mix":   func(o options) workload { return newServeMix(o, benchServe) },
	"oracle":      func(o options) workload { return newOracle(o, nil, 300) },
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed (drives the ranks and serve-mix inputs)")
	seconds := fs.Float64("seconds", 10, "wall-clock budget of the timed passes")
	traced := fs.Int("trace", 0, "1 adds a traced pass and prints the per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory for temporary result stores")
	out := fs.String("out", "", "also write the full report, host stamp included, as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	o := options{Root: ".", Work: *work, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		Procs: min(runtime.GOMAXPROCS(0), runtime.NumCPU())}
	if err := os.MkdirAll(o.Work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep, err := execute(context.Background(), *name, mk(o), o)
	if err == nil && *out != "" {
		err = writeReport(*out, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printReport(stdout, rep)
	b, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
