// Command edgebench is the EdgeBOL benchmark. It drives closed-loop control
// periods through core.Agent.StepCtx on one workload (paper, biggrid or
// oran), checks the outputs, and prints every metric by name with its unit;
// the last line of standard output is one JSON object. See README.md.
//
//	go run . --workload paper --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	name := flag.String("workload", "", "workload to run: paper, biggrid or oran")
	seed := flag.Int64("seed", 1, "seed every input of the run is generated from")
	seconds := flag.Float64("seconds", 10, "measurement time; a run always ends on a whole episode")
	trace := flag.Int("trace", 0, "1 makes a traced run, which reports the per-layer metrics")
	dir := flag.String("workdir", ".bench_build", "directory for checkpoints and the trace file")
	flag.Parse()
	w, ok := workloads()[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: edgebench --workload paper|biggrid|oran --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// Two processors keep the collector and the loopback servers off the
	// control loop's core without spreading it over a large host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	fmt.Printf("host: %s/%s nproc=%d GOMAXPROCS=%d %s\n",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "edgebench:", err)
		os.Exit(2)
	}
	res, err := run(w, runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, dir: *dir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgebench:", err)
		os.Exit(2)
	}
	if *trace == 1 {
		path := filepath.Join(*dir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		if err := res.tracer.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "edgebench:", err)
			os.Exit(2)
		}
		fmt.Printf("trace: %d spans in %s\n", len(res.tracer.spans), path)
	}
	fmt.Printf("run: workload=%s seed=%d episodes=%d periods=%d violation_pct=%g digest=%016x\n",
		w.name, *seed, len(res.eps), res.attempted, violationPct(firstRound(res.eps)), res.digest)
	for _, f := range res.failures {
		fmt.Println("check failed:", f)
	}
	var metrics map[string]metric
	if *trace == 1 {
		metrics = res.perLayer()
	} else {
		metrics = res.endToEnd()
	}
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("%-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.failures) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgebench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if len(res.failures) > 0 {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }
