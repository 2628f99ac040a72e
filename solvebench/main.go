// Command solvebench measures wall-clock time to a verified verdict on the
// paper's problem families, on every runtime and through the dcspd service,
// and attributes that time to the library's layers.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash solvebench/run.sh --workload sync-d3c-60 --seed 1 --seconds 30 --trace 0
//
// Every run generates its instances from --seed, solves them in a closed
// loop for --seconds, checks every returned assignment against the
// generated problem, and prints one JSON object as its last line of output.
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant (timing decorators around every agent, spans around every layer
// call) and prints the per-layer metrics. METRICS.md lists every metric and
// the end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spanDir receives the traced run's span file.
	spanDir string
	// stateDir holds the dcspd workload's journal while it runs.
	stateDir string
	// minSolves is the fewest solves a run makes, however short --seconds.
	minSolves int
	// costSolves is how many leading solves of a traced run the
	// deterministic paper costs (sim.cycles, sim.maxcck) are summed over;
	// every traced run completes at least this many, so the sums repeat
	// exactly for a seed.
	costSolves int
	// timeout bounds each async or TCP solve and each dcspd job; 0 keeps
	// the library's and the daemon's defaults.
	timeout time.Duration
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are the human-readable lines printed before the result line.
	notes []string
}

func (r *report) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same instances")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.spanDir, "spans", ".bench_build/spans", "directory for the traced run's span file")
	flag.StringVar(&cfg.stateDir, "state", ".bench_build/state", "directory for the dcspd workload's journal")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.minSolves = defaultMinSolves
	cfg.costSolves = defaultCostSolves
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	rep, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "solvebench: "+format+"\n", args...)
	os.Exit(1)
}

// defaultMinSolves guarantees the tail percentile has ten samples beyond
// it even when a run is slower than expected.
const defaultMinSolves = 20

const defaultCostSolves = 16

// run executes one invocation.
func run(cfg config) (*report, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if w.runtime == "dcspd" {
		return runService(cfg, w)
	}
	if cfg.trace {
		return runTraced(cfg, w)
	}
	return runPlain(cfg, w)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
