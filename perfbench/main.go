// Command perfbench is the end-to-end benchmark of the AA service. It
// starts the aaserve and aarelay binaries with their default flags,
// drives them with one closed-loop client whose request bodies are all
// generated from -seed and encoded before they are timed, calls the
// public aa package in-process for the library workload, and verifies
// every answer outside the timed region.
//
// Usage (run.sh builds the binaries first):
//
//	perfbench -bin DIR -work DIR --workload NAME|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer metrics, from the servers' -trace-out spans, /metrics
// counter deltas and the benchmark's own in-process timings. It prints a
// human-readable table, then, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. It exits
// non-zero when any answer is wrong or any request fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	bin     string // directory holding the aaserve and aarelay binaries
	work    string // scratch directory for traces
	// control is the HTTP client for readiness probes and /metrics
	// scrapes, kept off the load client's connection.
	control *http.Client
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 12, "timed seconds per run")
	trace := fs.Int("trace", 0, "1 = per-layer run")
	bin := fs.String("bin", "", "directory with the aaserve and aarelay binaries")
	work := fs.String("work", "", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -bin, -work, --seconds > 0 and --trace 0|1")
		return 2
	}
	var wls []*workload
	if *name == "all" {
		wls = workloads
	} else {
		wl, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		wls = []*workload{wl}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin,
		control: &http.Client{Timeout: 10 * time.Second}}

	code := 0
	all := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, wl := range wls {
		cfg.work = fmt.Sprintf("%s/%s-%d", *work, wl.name, os.Getpid())
		res, err := runOne(ctx, cfg, wl, stdout)
		_ = os.RemoveAll(cfg.work)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		if len(wls) == 1 {
			all = res
			break
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[wl.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// runOne runs one workload and prints its table. An error means the run
// could not measure at all; wrong answers and failed requests come back
// as Correct=false.
func runOne(ctx context.Context, cfg *config, wl *workload, stdout io.Writer) (jsonResult, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return jsonResult{}, err
	}
	kind := "end-to-end"
	if cfg.trace {
		kind = "per-layer"
	}
	fmt.Fprintf(stdout, "# perfbench %s workload=%s seed=%d seconds=%g cores=%d gomaxprocs=%d go=%s clients=1\n",
		kind, wl.name, cfg.seed, cfg.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "# why: %s\n", wl.why)
	o, err := runWorkload(ctx, cfg, wl)
	if err != nil {
		return jsonResult{}, err
	}
	for _, n := range o.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	res := jsonResult{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonMetric, len(o.metrics)),
	}
	for _, m := range o.metrics {
		if m.na {
			fmt.Fprintf(stdout, "%-42s %14s %-6s %s (reported as 0)\n", m.name, "n/a", m.unit, m.source)
		} else {
			fmt.Fprintf(stdout, "%-42s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.source)
		}
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	if o.firstErr != nil {
		fmt.Fprintf(stdout, "# FAILED: %d of %d requests; first: %v\n", o.failed, o.attempted, o.firstErr)
	} else if !res.Correct {
		fmt.Fprintln(stdout, "# FAILED: nothing was attempted")
	}
	return res, ctx.Err()
}
