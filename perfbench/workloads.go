package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aa/internal/core"
	"aa/internal/rng"
)

// Stream ids keep each workload's inputs apart for one seed.
const (
	directStream uint64 = iota + 1
	relayStream
	batchStream
	libraryStream
)

// workload is one traffic mix. path is the HTTP endpoint, or "" for the
// in-process library workload.
type workload struct {
	name    string
	why     string
	stream  uint64
	relay   bool
	path    string
	fresh   func(r *rng.Rand) ([]*core.Instance, error)
	warmups int
	// traceK is the fixed request count over which the traced run takes
	// its counter deltas, so the counts repeat exactly for a seed.
	traceK int
	// layerReqs is how many requests of the stream the in-process layer
	// timings use.
	layerReqs int
	// chunk is how many requests are built before each stretch of timed
	// sending; it bounds the memory held in bodies to about 30 MB.
	chunk int
}

func (wl *workload) sched(seed uint64) schedule {
	return schedule{seed: seed, stream: wl.stream, repeats: wl.relay}
}

var workloads = []*workload{
	{
		name:   "solve-paper-10k",
		why:    "1 closed-loop client, direct aaserve /solve, fresh paper §VII instance per request (uniform, 3-knot PCHIP, n=10^4, m=64, C=1000): the wire decode dominates",
		stream: directStream, path: "/solve", fresh: paperRequest,
		warmups: 4, traceK: 48, layerReqs: 6, chunk: 16,
	},
	{
		name:   "relay-repeat-10k",
		why:    "1 closed-loop client, aarelay -cache shared before 1 aaserve, paper instances n=10^4 m=64; 1 in 4 is a shuffled repeat of the last 8 fresh: relay decode, fingerprint, cache",
		stream: relayStream, relay: true, path: "/solve", fresh: paperRequest,
		warmups: 4, traceK: 48, layerReqs: 6, chunk: 16,
	},
	{
		name:   "batch-mixed-1k",
		why:    "1 closed-loop client, direct aaserve streaming /solve/batch of 32 fresh gen.MixedFamilies instances (n=10^3, m=64, C=1000): the λ search and pool workers dominate",
		stream: batchStream, path: "/solve/batch", fresh: mixedBatch,
		warmups: 4, traceK: 24, layerReqs: 3, chunk: 8,
	},
	{
		name:    "library-paper-128k",
		why:     "1 caller, in-process aa.Solve on 4 pre-built paper instances (n=131072, m=64, C=1000) in turn: no wire, the parallel core path; control for wire changes",
		stream:  libraryStream,
		warmups: 2, traceK: 24, layerReqs: 2,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

const (
	// setupRuns is how many times a run sets up, to report the median;
	// a server set-up takes milliseconds, so one CPU stolen from the
	// machine for a moment moves a single set-up by a large share.
	setupRuns = 11
	// maxPhaseWall caps a phase's wall time so that a run, which has at
	// most two phases, ends within three minutes even on a machine far
	// slower than expected.
	maxPhaseWall = 60 * time.Second
)

// runWorkload runs wl once, untraced (end-to-end metrics) or traced
// (per-layer metrics).
func runWorkload(ctx context.Context, cfg *config, wl *workload) (*outcome, error) {
	switch {
	case wl.path == "" && cfg.trace:
		return traceLibrary(ctx, cfg, wl)
	case wl.path == "":
		return runLibrary(ctx, cfg, wl)
	case cfg.trace:
		return traceHTTP(ctx, cfg, wl)
	default:
		return runHTTP(ctx, cfg, wl)
	}
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           []metricValue
	notes             []string
}

// metricValue is one reported metric. source says where a per-layer
// number came from, or, for na, why the workload has none (the JSON
// then reports 0).
type metricValue struct {
	name   string
	value  float64
	unit   string
	source string
	na     bool
}

func (o *outcome) add(name string, value float64, unit, source string) {
	o.metrics = append(o.metrics, metricValue{name: name, value: value, unit: unit, source: source})
}

func (o *outcome) addNA(name, unit, why string) {
	o.metrics = append(o.metrics, metricValue{name: name, unit: unit, source: why, na: true})
}

const noLayer = "the workload does not pass through this layer"

func (o *outcome) absorb(ph *phase) {
	o.attempted += ph.sent
	o.failed += ph.failed
	if o.firstErr == nil {
		o.firstErr = ph.firstErr
	}
}

// endToEnd fills the end-to-end metrics from a measured phase's
// reported windows. The p90 is printed, not reported in the JSON: on a
// shared host its run-to-run spread follows the neighbours' load more
// than the program.
func (o *outcome) endToEnd(ph *phase, minRatio float64, setups []float64, rssMB float64) error {
	if len(ph.lat) == 0 {
		return fmt.Errorf("no request succeeded")
	}
	p90, err := tailPercentile(ph.lat, 90)
	if err != nil {
		return err
	}
	ok := float64(len(ph.lat))
	o.add("latency_p50_ms", median(ph.lat), "ms", "")
	o.add("throughput_rps", median(ph.rates), "1/s", "")
	o.add("hit_latency_p50_ms", median(ph.slotLat), "ms", "")
	o.add("cpu_ms_per_req", float64(ph.cpu.Microseconds())/1e3/ok, "ms", "")
	o.add("rss_mb", rssMB, "MB", "")
	o.add("quality_ratio_min", minRatio, "ratio", "")
	o.add("success_share", 1-float64(o.failed)/float64(o.attempted), "ratio", "")
	o.add("setup_s", median(setups), "s", "")
	o.notes = append(o.notes,
		fmt.Sprintf("samples: %d timed, %d repeat-slot, from %d of %d windows of %d requests (%.2fs timed); hypervisor steal %.1f%% of CPU capacity in them, %.1f%% in all",
			len(ph.lat), len(ph.slotLat), len(ph.rates), len(ph.wins), windowReqs, ph.timed.Seconds(), 100*ph.pickedSteal, 100*ph.stealShare),
		fmt.Sprintf("latency_p90_ms %.4f with %d samples beyond it (printed, not in the JSON)",
			p90, len(ph.lat)-1-rankIndex(len(ph.lat), 90)),
		fmt.Sprintf("throughput_rps is the median over the windows' request rates; their mean rate is %.4f", ok/ph.timed.Seconds()),
		fmt.Sprintf("requests: %d sent, %d succeeded, %d failed (failed_share %.4f)",
			o.attempted, o.attempted-o.failed, o.failed, float64(o.failed)/float64(o.attempted)),
		fmt.Sprintf("setup_s over %d set-ups: %s", len(setups), fmtList(setups)),
		"latency ms at p10 p20 ... p90 p99: "+fmtList(deciles(ph.lat)))
	return nil
}

func deciles(xs []float64) []float64 {
	var out []float64
	for p := 10.0; p < 100; p += 10 {
		out = append(out, percentile(xs, p))
	}
	return append(out, percentile(xs, 99))
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s
}

// runHTTP is the end-to-end run of an HTTP workload.
func runHTTP(ctx context.Context, cfg *config, wl *workload) (*outcome, error) {
	var (
		setups []float64
		cl     *cluster
	)
	defer func() { cl.stop() }()
	for s := 0; s < setupRuns; s++ {
		cl.stop()
		c, d, err := startCluster(ctx, cfg, wl.relay, "")
		if err != nil {
			return nil, err
		}
		cl = c
		setups = append(setups, d.Seconds())
	}
	o := &outcome{}
	var before map[string]float64
	scrapeRelay := func() (err error) {
		if wl.relay {
			before, err = scrape(cfg.control, cl.relay.url("/metrics"))
		}
		return err
	}
	minCount := minSamplesFor(90)
	if wl.relay {
		minCount = max(minCount, relayFillReqs)
	}
	ph, warmRatio, err := measure(ctx, cfg, wl, cl, o, false, scrapeRelay,
		plan{seconds: cfg.seconds, minCount: minCount})
	if err != nil {
		return nil, err
	}
	rss, err := clusterRSS(cl)
	if err != nil {
		return nil, err
	}
	if wl.relay {
		after, err := scrape(cfg.control, cl.relay.url("/metrics"))
		if err != nil {
			return nil, err
		}
		d := delta(before, after)
		hits, misses := d["aa_cache_hits_total"], d["aa_cache_misses_total"]
		o.notes = append(o.notes, fmt.Sprintf("relay cache: %.0f hits, %.0f misses for %d scheduled repeats of %d requests", hits, misses, ph.repeats, ph.sent))
		if ph.failed == 0 && (hits != float64(ph.repeats) || misses != float64(ph.sent-ph.repeats)) {
			o.failed++
			o.firstErr = fmt.Errorf("relay cache served %.0f hits and %.0f misses; the schedule sent %d repeats among %d requests",
				hits, misses, ph.repeats, ph.sent)
		}
	}
	err = o.endToEnd(ph, math.Min(warmRatio, ph.minRatio), setups, rss)
	return o, err
}

// measure sends the workload's warm-up requests to cl, calls start, then
// runs the measured stream under p; both phases' requests count in o.
// It returns the measured phase and the warm-up's worst F/F̂.
func measure(ctx context.Context, cfg *config, wl *workload, cl *cluster, o *outcome, traced bool,
	start func() error, p plan) (*phase, float64, error) {
	h := &httpRunner{client: loadClient(), path: wl.path, chunk: wl.chunk, ver: newVerifier(), traced: traced}
	st := newStream(wl.sched(cfg.seed), wl.fresh)
	warmReqs, err := st.warmup(wl.warmups)
	if err != nil {
		return nil, 0, err
	}
	warm := newPhase()
	h.warm(ctx, cl, warmReqs, warm)
	o.absorb(warm)
	if err := start(); err != nil {
		return nil, 0, err
	}
	ph, err := h.run(ctx, cl, st, p)
	if err != nil {
		return nil, 0, err
	}
	o.absorb(ph)
	return ph, warm.minRatio, nil
}

// counted are the node counters whose per-solve ratios the traced run
// reports; for a seed they must repeat exactly.
var counted = []string{
	"aa_core_superopt_total",
	"aa_core_bisection_iterations_total",
	"aa_core_assign2_total",
	"aa_core_assign2_sort_comparisons_total",
	"aa_core_assign2_heap_operations_total",
}

// countWindow scrapes the servers before the first measured request and
// after the k-th, so the deltas cover exactly the first k requests of
// the stream.
type countWindow struct {
	k                  int
	scrape             func() (map[string]float64, error)
	before, node, rely map[string]float64
	repeats            int
}

func (w *countWindow) start() error {
	var err error
	w.before, err = w.scrape()
	return err
}

func (w *countWindow) onCount(ph *phase) error {
	if ph.sent != w.k {
		return nil
	}
	after, err := w.scrape()
	if err != nil {
		return err
	}
	d := delta(w.before, after)
	w.node, w.rely, w.repeats = map[string]float64{}, map[string]float64{}, ph.repeats
	for k, v := range d {
		if name, ok := strings.CutPrefix(k, "relay:"); ok {
			w.rely[name] = v
		} else {
			w.node[k] = v
		}
	}
	return nil
}

// scrapeCluster reads the node's /metrics and, prefixed "relay:", the
// relay's.
func scrapeCluster(cfg *config, cl *cluster) (map[string]float64, error) {
	m, err := scrape(cfg.control, cl.node.url("/metrics"))
	if err != nil || cl.relay == nil {
		return m, err
	}
	r, err := scrape(cfg.control, cl.relay.url("/metrics"))
	for k, v := range r {
		m["relay:"+k] = v
	}
	return m, err
}

// tracedPhase starts the cluster (traced when traceDir is set), warms
// it, and runs the stream for half the run, taking counter deltas over
// the first wl.traceK requests.
func tracedPhase(ctx context.Context, cfg *config, wl *workload, o *outcome, traceDir string) (*phase, *countWindow, error) {
	cl, _, err := startCluster(ctx, cfg, wl.relay, traceDir)
	if err != nil {
		return nil, nil, err
	}
	defer cl.stop()
	cw := &countWindow{k: wl.traceK, scrape: func() (map[string]float64, error) { return scrapeCluster(cfg, cl) }}
	ph, _, err := measure(ctx, cfg, wl, cl, o, traceDir != "", cw.start,
		plan{seconds: cfg.seconds / 2, minCount: wl.traceK, onCount: cw.onCount})
	return ph, cw, err
}

// traceHTTP is the traced run of an HTTP workload: an untraced half with
// counter deltas, a traced half whose spans give the layer table, then
// in-process timings of each layer's functions on the workload's inputs.
func traceHTTP(ctx context.Context, cfg *config, wl *workload) (*outcome, error) {
	o := &outcome{}
	phA, cwA, err := tracedPhase(ctx, cfg, wl, o, "")
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	phB, cwB, err := tracedPhase(ctx, cfg, wl, o, dir)
	if err != nil {
		return nil, err
	}
	if cwA.node == nil || cwB.node == nil {
		return nil, fmt.Errorf("fewer than %d requests sent; no counter window", wl.traceK)
	}
	for _, name := range counted {
		if cwA.node[name] != cwB.node[name] {
			o.failed++
			o.firstErr = fmt.Errorf("%s moved by %v untraced and %v traced over the same %d requests",
				name, cwA.node[name], cwB.node[name], wl.traceK)
		}
	}
	if wl.relay {
		hits, misses := cwA.rely["aa_cache_hits_total"], cwA.rely["aa_cache_misses_total"]
		if hits != float64(cwA.repeats) || hits+misses != float64(cwA.k) {
			o.failed++
			o.firstErr = fmt.Errorf("relay cache hit %.0f of %.0f lookups; the schedule sent %d repeats in %d requests",
				hits, hits+misses, cwA.repeats, cwA.k)
		}
	}
	spans, err := readLayerSpans(filepath.Join(dir, "aaserve.jsonl"), filepath.Join(dir, "aarelay.jsonl"), phB.sent)
	if err != nil {
		return nil, err
	}
	layers, err := inprocLayersFor(cfg, wl)
	if err != nil {
		return nil, err
	}
	o.perLayer(wl, layers, spans, cwA, phA, phB)
	return o, nil
}

// perLayer fills the per-layer metrics in BENCHMARK.json order.
func (o *outcome) perLayer(wl *workload, in inprocTimes, sp spanTable, cw *countWindow, phA, phB *phase) {
	const ip = "in-process"
	o.add("instio.decode_ms", in.decodeMs, "ms", ip)
	o.add("instio.decode_mb_per_s", in.decodeMBps, "MB/s", ip)
	o.add("instio.decode_alloc_mb", in.decodeAllocMB, "MB", ip)
	o.add("instio.encode_ms", in.encodeMs, "ms", ip)
	http := wl.path != ""
	perReq := func(name string, total int64) {
		if !http {
			o.addNA(name, "bytes", noLayer)
			return
		}
		o.add(name, float64(total)/float64(phA.sent), "bytes", "client")
	}
	perReq("wire.request_bytes", phA.reqBytes)
	perReq("wire.response_bytes", phA.rspBytes)
	spanMetric := func(name string, xs []float64) {
		if len(xs) == 0 {
			o.addNA(name, "ms", noLayer)
			return
		}
		o.add(name, median(xs), "ms", fmt.Sprintf("span median of %d", len(xs)))
	}
	spanMetric("aaserve.http_request_ms", sp.httpRequest)
	spanMetric("aaserve.outside_engine_ms", sp.outsideEngine)
	spanMetric("engine.solve_ms", sp.engineSolve)
	spanMetric("core.superopt_ms", sp.superopt)
	spanMetric("core.assign2_ms", sp.assign2)
	o.add("inproc.engine.solve_ms", in.solveMs, "ms", ip)
	o.add("inproc.core.superopt_ms", in.superoptMs, "ms", ip)
	o.add("inproc.core.assign2_ms", in.assign2Ms, "ms", ip)
	src := fmt.Sprintf("counters over %d requests", cw.k)
	ratio := func(name, num, den string) {
		if cw.node[den] == 0 {
			o.addNA(name, "count", "no solve in the counter window")
			return
		}
		o.add(name, cw.node[num]/cw.node[den], "count", src)
	}
	ratio("alloc.bisection_iters_per_solve", "aa_core_bisection_iterations_total", "aa_core_superopt_total")
	ratio("core.assign2_sort_comparisons_per_solve", "aa_core_assign2_sort_comparisons_total", "aa_core_assign2_total")
	ratio("core.assign2_heap_ops_per_solve", "aa_core_assign2_heap_operations_total", "aa_core_assign2_total")
	if n := cw.node["aa_pool_enqueue_latency_seconds_count"]; n > 0 {
		o.add("solverpool.wait_ms", 1e3*cw.node["aa_pool_enqueue_latency_seconds_sum"]/n, "ms", src)
	} else {
		o.addNA("solverpool.wait_ms", "ms", "only /solve/batch waits to enqueue")
	}
	if http {
		o.add("solverpool.rejected", cw.node["aa_pool_rejected_total"], "count", src)
	} else {
		o.addNA("solverpool.rejected", "count", noLayer)
	}
	o.add("cache.canonicalize_ms", in.canonMs, "ms", ip)
	if wl.relay {
		hits, misses := cw.rely["aa_cache_hits_total"], cw.rely["aa_cache_misses_total"]
		o.add("cache.hit_ratio", hits/(hits+misses), "ratio", src)
		spanMetric("aarelay.self_ms", sp.relaySelf)
		o.add("router.failovers", cw.rely["aa_relay_failovers_total"], "count", src)
	} else {
		o.addNA("cache.hit_ratio", "ratio", noLayer)
		o.addNA("aarelay.self_ms", "ms", noLayer)
		o.addNA("router.failovers", "count", noLayer)
	}
	o.add("telemetry.trace_overhead_ratio", median(phB.lat)/median(phA.lat), "ratio",
		fmt.Sprintf("traced p50 %.3f ms / untraced p50 %.3f ms", median(phB.lat), median(phA.lat)))
}
