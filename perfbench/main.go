// Command perfbench is the repository benchmark: it runs one workload of
// the packet-level-parallel stack, checks its outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output.
//
//	perfbench --workload tcp-recv-8p --seed 1 --seconds 10 --trace 0
//
// --workload all runs the four workloads in sequence in one process.
// See README.md for the metric glossary and the layer map.
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

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable verdict for one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// fail records a failed output check: the run is incorrect and every
// packet it offered counts as failed.
func (r *result) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	r.Correct = false
}

func main() {
	name := flag.String("workload", "", "workload name, or \"all\"")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in wall seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))

	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := findWorkload(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr, ", all)")
		os.Exit(2)
	}

	hostProcs := runtime.GOMAXPROCS(0)
	total := newResult()
	for _, w := range todo {
		// The simulator resumes one goroutine at a time. With spare Ps,
		// an engine handoff can wake an idle P's thread that then finds
		// nothing to run; on a shared VM those wake-ups widened the
		// run-to-run spread of the host timings (interleaved runs: 10 %
		// vs 7 % on tcp-recv-8p, 29 % vs 17 % on tcp-send-8p). Simulated
		// workloads therefore run on one P; the host backend needs all.
		if w.host {
			runtime.GOMAXPROCS(hostProcs)
		} else {
			runtime.GOMAXPROCS(1)
		}
		r := newResult()
		if *traced == 1 {
			runTraced(w, *seed, budget, r)
		} else {
			runEndToEnd(w, *seed, budget, r)
		}
		if !r.Correct {
			r.Failed = r.Attempted
		}
		printHuman(w.name, r)
		if len(todo) == 1 {
			total = r
			break
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, m := range r.Metrics {
			total.Metrics[w.name+"/"+k] = m
		}
	}
	if total.Attempted < 1 {
		total.Attempted = 1
		total.Failed = 1
		total.Correct = false
	}
	out, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !total.Correct {
		os.Exit(1)
	}
}

// printHuman prints one workload's metrics by name and unit, plus the
// failure share the JSON carries as attempted/failed.
func printHuman(workload string, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-17s %-34s %16.6g %s\n", workload, k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	failPct := 0.0
	if r.Attempted > 0 {
		failPct = 100 * float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-17s %-34s %16.6g %% (%d of %d packets offered)\n", workload, "fail_pct", failPct, r.Failed, r.Attempted)
}
