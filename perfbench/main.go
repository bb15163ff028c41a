// Command perfbench is the repository benchmark: it drives a real oscard
// binary over loopback HTTP with one closed-loop client and reports
// end-to-end metrics (untraced runs) or per-layer metrics (traced runs).
//
// Usage, from the repository root (perfbench/run.sh builds both binaries):
//
//	perfbench -oscard .bench_build/oscard -workdir .bench_build/work \
//	          --workload sv-cold --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	sv-cold    16-qubit statevector QAOA jobs on the 50x100 Table-1 grid;
//	           the simulator dominates and the cache never hits.
//	fleet-p2   p=2 QAOA jobs on a 3-device risk-aware fleet with a heavy
//	           tail, a slow device and a flaky one; warm-started 4-D solves
//	           dominate.
//	query-lru  512-point surrogate queries over 16 stored landscapes behind
//	           an 8-entry interpolator LRU, picked by a Zipf law.
//
// Every op list is generated from --seed before timing, so a seed always
// replays the same work. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Lines before it
// report figures that are not part of that object and any failed checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// setupBoots is how many times a run boots oscard to measure set-up;
	// setup_s is the median.
	setupBoots = 3
	// maxJobOps bounds a job workload's op list (far more than one run
	// reaches).
	maxJobOps = 1000
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	oscard   string
	workdir  string
	nproc    int
}

// note prints a figure that is reported outside the result object.
func (c *runConfig) note(name string, v float64, unit string) {
	fmt.Println(name, v, unit)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed check; failed ops are counted by the caller.
func (r *result) fail(why string) {
	r.Correct = false
	r.Failed++
	r.problems = append(r.problems, why)
}

// check records a failed run-level check that is not an op.
func (r *result) check(ok bool, why string) {
	if !ok {
		r.Correct = false
		r.problems = append(r.problems, why)
	}
}

// workload runs untraced (end-to-end metrics) or traced (per-layer metrics).
type workload interface {
	run(*runConfig) (*result, error)
	traced(*runConfig) (*result, error)
}

var workloads = map[string]workload{
	"sv-cold":   svCold,
	"fleet-p2":  fleetP2,
	"query-lru": queryLRU,
}

func main() {
	var (
		c       runConfig
		seconds float64
		trace   int
	)
	flag.StringVar(&c.workload, "workload", "", "workload: sv-cold, fleet-p2 or query-lru")
	flag.Int64Var(&c.seed, "seed", 1, "seed the op list is generated from")
	flag.Float64Var(&seconds, "seconds", 25, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.oscard, "oscard", "", "path of the oscard binary")
	flag.StringVar(&c.workdir, "workdir", "", "scratch directory (emptied first)")
	flag.Parse()
	c.duration = time.Duration(seconds * float64(time.Second))
	c.trace = trace == 1
	c.nproc = runtime.NumCPU()

	w, ok := workloads[c.workload]
	if !ok || c.oscard == "" || c.workdir == "" || seconds <= 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -oscard, -workdir, --seconds > 0 and --workload one of %s\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	if err := os.RemoveAll(c.workdir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		fatal(err)
	}
	run := w.run
	if c.trace {
		run = w.traced
	}
	res, err := run(&c)
	if err != nil {
		fatal(err)
	}
	const shown = 20
	for i, p := range res.problems {
		if i == shown {
			fmt.Printf("FAILED ... and %d more\n", len(res.problems)-shown)
			break
		}
		fmt.Println("FAILED", p)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fatal(fmt.Errorf("metric %s is %v", name, m.Value))
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
