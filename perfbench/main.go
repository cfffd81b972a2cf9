// Command perfbench is the repository's benchmark of record. It serves
// the store's HTTP handler (store.NewServer) in process over loopback,
// drives one workload against it for a fixed time with at most two
// client goroutines, checks the answers against a reference computed
// apart from the program, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of its output.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload cold-plan --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh steady --runs 10 --seconds 20
//	bash perfbench/run.sh refgen
//
// See perfbench/README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "refgen":
			os.Exit(refgenMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Int("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	b, err := newBench(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer b.close()
	fmt.Println(machineLine())
	res, err := b.run(mk())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
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

// machineLine records where the numbers were taken: a figure is only
// comparable to one measured on the same machine.
func machineLine() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("machine: cpu=%q nproc=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
