package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// steadyMain runs each workload repeatedly, once per seed, and prints
// per end-to-end metric the median, the quartiles and the spread
// (Q3−Q1)/median — the evidence behind the bounds in BENCHMARK.json.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload, one seed each")
	seed0 := fs.Uint64("seed0", 1, "seed of the first run")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	list := fs.String("workloads", strings.Join(workloadNames(), ","), "comma-separated workloads")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(machineLine())
	status := 0
	for _, name := range strings.Split(*list, ",") {
		values := map[string][]float64{}
		units := map[string]string{}
		var attempted, failed int
		for r := 0; r < *runs; r++ {
			seed := *seed0 + uint64(r)
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(*seconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Printf("%s seed %d: %v\n", name, seed, err)
				status = 1
				continue
			}
			res, err := lastResult(out.Bytes())
			if err != nil {
				fmt.Printf("%s seed %d: %v\n", name, seed, err)
				status = 1
				continue
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: checks failed\n%s", name, seed, out.String())
				status = 1
			}
			attempted += res.Attempted
			failed += res.Failed
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			fmt.Printf("%s seed %d: %s\n", name, seed, compact(res))
		}
		fmt.Printf("\n%s: %d runs, %d operations attempted, %d failed\n", name, *runs, attempted, failed)
		fmt.Printf("%-16s %6s %12s %12s %12s %8s\n", "metric", "unit", "Q1", "median", "Q3", "spread")
		for _, k := range sortedKeys(values) {
			q1, q2, q3 := quartiles(values[k])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Printf("%-16s %6s %12.4f %12.4f %12.4f %8.4f\n", k, units[k], q1, q2, q3, spread)
		}
		fmt.Println()
	}
	return status
}

// lastResult decodes the result line a run prints last.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line: %v", err)
	}
	return &res, nil
}

func compact(res *result) string {
	parts := []string{fmt.Sprintf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)}
	for _, k := range sortedKeys(res.Metrics) {
		parts = append(parts, fmt.Sprintf("%s=%.4g", k, res.Metrics[k].Value))
	}
	return strings.Join(parts, " ")
}
