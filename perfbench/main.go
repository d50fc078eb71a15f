// Command perfbench is the repository's benchmark: an in-process load
// generator that serves serve.New(...).Handler() on a loopback listener
// and drives one named workload over real HTTP with one closed-loop
// client. It checks every output, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics of a traced run) with the
// JSON summary as the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the daemon sees, reported by the
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "1/op"},
	{"alloc_mb_per_op", "MiB/op"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the traced run's metrics; README.md gives each one's
// definition and the end-to-end metric it should move.
var perLayer = []metricDef{
	{"trace.overhead_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"serve.submit_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.admission_wait_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"store.get_us", "us"},
	{"result.encode_ms", "ms"},
	{"tracesim.run_ms", "ms"},
	{"cluster.submit_ms", "ms"},
	{"cluster.close_ms", "ms"},
	{"cluster.memo_hit_ratio", "ratio"},
	{"cluster.flowset_misses_per_op", "1/op"},
	{"sched.replay_ms", "ms"},
	{"sched.events_per_op", "1/op"},
	{"sched.place_us", "us"},
	{"sched.plan_hit_ratio", "ratio"},
	{"scenario.run_ms", "ms"},
	{"scenario.sim_ms", "ms"},
	{"sweep.expand_ms", "ms"},
	{"sweep.pool_efficiency", "ratio"},
	{"netsim.run_ms", "ms"},
	{"netsim.flows_per_op", "1/op"},
	{"gc.cpu_share", "ratio"},
	{"gc.cycles_per_op", "1/op"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func main() {
	var cfg config
	var trace, steady int
	flag.StringVar(&cfg.workload, "workload", "", "workload: trace-cold, cluster-stream, sweep-cold or serve-hot")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same request bytes")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed region")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for the FS store and the span file (default: a new temp dir)")
	flag.IntVar(&steady, "steady", 0, "run the workload (or all, without -workload) this many times with seeds 1..N in child processes and print each metric's median and quartiles")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if steady > 0 {
		if err := steadiness(cfg, steady, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if cfg.workdir == "" {
		dir, err := os.MkdirTemp("", "perfbench-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		cfg.workdir = dir
	}
	sum, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
