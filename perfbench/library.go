package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"aa"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/telemetry"
)

// libraryInstances builds the first k instances of the library
// workload's pool.
func libraryInstances(seed uint64, wl *workload, k int) ([]*core.Instance, error) {
	sched := wl.sched(seed)
	pool := make([]*core.Instance, k)
	err := parallelFor(k, func(i int) error {
		in, err := paperInstance(sched.rand(purposeFresh, uint64(i)), libraryN)
		pool[i] = in
		return err
	})
	return pool, err
}

// libPool is the library workload's pre-built instances and their
// super-optimal bounds F̂, computed before anything is timed.
type libPool struct {
	sched schedule
	ins   []*core.Instance
	fhat  []float64
}

func buildLibrary(seed uint64, wl *workload) (*libPool, error) {
	ins, err := libraryInstances(seed, wl, libraryPool)
	if err != nil {
		return nil, err
	}
	lp := &libPool{sched: wl.sched(seed), ins: ins, fhat: make([]float64, len(ins))}
	err = parallelFor(len(ins), func(i int) error {
		lp.fhat[i] = core.SuperOptimal(ins[i]).Total
		return nil
	})
	return lp, err
}

func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// call solves pool instance k with aa.Solve, timing the call and the
// process CPU it used, then verifies the answer untimed. slotSample
// marks a call in the schedule's repeat slot.
func (lp *libPool) call(k int, slotSample bool, ph *phase) {
	in := lp.ins[k]
	steal0, cpu0 := stealTicks(), rusageCPU()
	t0 := time.Now()
	a := aa.Solve(in)
	rt := time.Since(t0)
	cpu, stolen := rusageCPU()-cpu0, stealTicks()-steal0
	ph.sent++
	ratio, err := checkAssignment(in, a, math.NaN(), lp.fhat[k])
	if err != nil {
		ph.fail(err)
	} else {
		ph.minRatio = min(ph.minRatio, ratio)
	}
	ph.observe(rt, cpu, stolen, err == nil, slotSample)
}

// run calls the pool in turn until p says stop, then picks the windows
// it reports. Before each round of the pool it collects garbage,
// untimed: the live heap is mostly the benchmark's own pre-built
// instances, and a collection of it landing inside a call would put a
// second mode in the latency tail.
func (lp *libPool) run(ctx context.Context, p plan) (*phase, error) {
	ph := newPhase()
	wall := time.Now()
	for i := 0; !p.done(ph, wall); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if i%len(lp.ins) == 0 {
			runtime.GC()
		}
		lp.call(i%len(lp.ins), lp.sched.at(i).repeatSlot, ph)
		if p.onCount != nil {
			if err := p.onCount(ph); err != nil {
				return nil, err
			}
		}
	}
	ph.pick(p)
	return ph, nil
}

// warm makes wl.warmups calls whose timings are discarded.
func (lp *libPool) warm(wl *workload, o *outcome) {
	ph := newPhase()
	for i := 0; i < wl.warmups; i++ {
		lp.call(i%len(lp.ins), false, ph)
	}
	o.absorb(ph)
}

// runLibrary is the end-to-end run of the library workload. Its set-up
// is engine construction plus the first solve, each time after two
// garbage collections have emptied the workspace pools.
func runLibrary(ctx context.Context, cfg *config, wl *workload) (*outcome, error) {
	lp, err := buildLibrary(cfg.seed, wl)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	setupPh := newPhase()
	var setups []float64
	for s := 0; s < setupRuns; s++ {
		runtime.GC()
		runtime.GC()
		in := lp.ins[s%len(lp.ins)]
		t0 := time.Now()
		eng := engine.New(engine.Options{})
		resp, err := eng.Solve(ctx, &engine.Request{Instance: in})
		setups = append(setups, time.Since(t0).Seconds())
		eng.Close()
		setupPh.sent++
		if err != nil {
			setupPh.fail(err)
			continue
		}
		if _, err := checkAssignment(in, resp.Assignment, math.NaN(), lp.fhat[s%len(lp.ins)]); err != nil {
			setupPh.fail(err)
		}
	}
	o.absorb(setupPh)
	lp.warm(wl, o)
	ph, err := lp.run(ctx, plan{seconds: cfg.seconds, minCount: minSamplesFor(90)})
	if err != nil {
		return nil, err
	}
	o.absorb(ph)
	rss, err := pidPeakRSSMB("self")
	if err != nil {
		return nil, err
	}
	err = o.endToEnd(ph, ph.minRatio, setups, rss)
	return o, err
}

// traceLibrary is the traced run of the library workload: half the run
// untraced (telemetry off, the aa package's default), half with
// telemetry and an in-process trace writer on, counters taken over the
// first wl.traceK calls of that half.
func traceLibrary(ctx context.Context, cfg *config, wl *workload) (*outcome, error) {
	lp, err := buildLibrary(cfg.seed, wl)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	lp.warm(wl, o)
	phA, err := lp.run(ctx, plan{seconds: cfg.seconds / 2, minCount: wl.traceK})
	if err != nil {
		return nil, err
	}
	o.absorb(phA)

	dir := filepath.Join(cfg.work, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(dir, "library.jsonl")
	f, err := os.Create(tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	telemetry.Enable()
	telemetry.SetTraceWriter(f)
	cw := &countWindow{k: wl.traceK}
	before := counterValues()
	phB, err := lp.run(ctx, plan{seconds: cfg.seconds / 2, minCount: wl.traceK,
		onCount: func(ph *phase) error {
			if ph.sent == wl.traceK {
				cw.node = delta(before, counterValues())
			}
			return nil
		}})
	detachErr := telemetry.DetachTraceWriter()
	telemetry.Disable()
	if err != nil {
		return nil, err
	}
	if detachErr != nil {
		return nil, detachErr
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	o.absorb(phB)
	if cw.node == nil {
		return nil, fmt.Errorf("fewer than %d calls made; no counter window", wl.traceK)
	}
	spans, err := readSpans(tracePath)
	if err != nil {
		return nil, err
	}
	sp := spanTable{
		engineSolve: durations(spans, "engine.solve"),
		superopt:    durations(spans, "core.superopt"),
		assign2:     durations(spans, "core.assign2"),
	}
	layers, err := inprocLayersFor(cfg, wl)
	if err != nil {
		return nil, err
	}
	o.perLayer(wl, layers, sp, cw, phA, phB)
	return o, nil
}

// counterValues reads the in-process counters the traced run reports.
func counterValues() map[string]float64 {
	m := make(map[string]float64, len(counted))
	for _, name := range counted {
		m[name] = float64(telemetry.Default.Counter(name).Value())
	}
	return m
}
