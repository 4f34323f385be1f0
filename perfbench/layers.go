package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"aa/internal/cache"
	"aa/internal/core"
	"aa/internal/engine"
	"aa/internal/instio"
)

// spanRec is one record of the servers' -trace-out JSONL.
type spanRec struct {
	Type   string  `json:"type"`
	Name   string  `json:"name"`
	Trace  string  `json:"trace_id"`
	Span   string  `json:"span_id"`
	Parent string  `json:"parent_id"`
	TS     int64   `json:"ts_us"`
	Dur    float64 `json:"dur_us"`
}

// spanTable holds per-layer durations in milliseconds, one entry per
// measured request (http.request, relay self time) or per solve (engine
// and core stages).
type spanTable struct {
	httpRequest, outsideEngine []float64
	engineSolve, superopt      []float64
	assign2, relaySelf         []float64
}

func readSpans(path string) ([]spanRec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []spanRec
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r spanRec
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Type == "span" {
			out = append(out, r)
		}
	}
}

// readLayerSpans builds the span table from the node's and (when the
// file exists) the relay's trace, keeping only the spans of the first
// `measured` requests of the stream (trace ids traceID(0..measured-1)).
func readLayerSpans(nodePath, relayPath string, measured int) (spanTable, error) {
	ours := make(map[string]bool, measured)
	for i := 0; i < measured; i++ {
		ours[traceID(i)] = true
	}
	var t spanTable
	node, err := readSpans(nodePath)
	if err != nil {
		return t, err
	}
	node = keep(node, ours)
	t.httpRequest, t.outsideEngine = selfTimes(node, "http.request", "engine.solve")
	t.engineSolve = durations(node, "engine.solve")
	t.superopt = durations(node, "core.superopt")
	t.assign2 = durations(node, "core.assign2")
	if _, err := os.Stat(relayPath); err == nil {
		relay, err := readSpans(relayPath)
		if err != nil {
			return t, err
		}
		_, t.relaySelf = selfTimes(keep(relay, ours), "http.request", "relay.forward")
	}
	return t, nil
}

func keep(spans []spanRec, traces map[string]bool) []spanRec {
	var out []spanRec
	for _, s := range spans {
		if traces[s.Trace] {
			out = append(out, s)
		}
	}
	return out
}

func durations(spans []spanRec, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur/1e3)
		}
	}
	return out
}

// selfTimes returns, for every span named parent, its duration and its
// duration minus the part its `child`-named children cover, in ms.
func selfTimes(spans []spanRec, parent, child string) (total, self []float64) {
	kids := make(map[string][]spanRec)
	for _, s := range spans {
		if s.Name == child {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, p := range spans {
		if p.Name != parent {
			continue
		}
		var starts, durs []float64
		for _, k := range kids[p.Span] {
			starts = append(starts, float64(k.TS))
			durs = append(durs, k.Dur)
		}
		lo := float64(p.TS)
		covered := coveredDuration(lo, lo+p.Dur, starts, durs)
		total = append(total, p.Dur/1e3)
		self = append(self, (p.Dur-covered)/1e3)
	}
	return total, self
}

// inprocTimes are the benchmark's own timings of each layer's public
// functions on the workload's inputs: per request body for decode and
// encode, per instance for the rest.
type inprocTimes struct {
	decodeMs, decodeMBps, decodeAllocMB float64
	encodeMs, canonMs                   float64
	superoptMs, assign2Ms, solveMs      float64
}

// inprocLayersFor builds the first wl.layerReqs requests of the
// workload's stream (the library's first instances, encoded as /solve
// bodies) and times the layers on them.
func inprocLayersFor(cfg *config, wl *workload) (inprocTimes, error) {
	var reqs []*request
	if wl.path == "" {
		pool, err := libraryInstances(cfg.seed, wl, wl.layerReqs)
		if err != nil {
			return inprocTimes{}, err
		}
		for _, in := range pool {
			body, err := encodeBody([]*core.Instance{in})
			if err != nil {
				return inprocTimes{}, err
			}
			reqs = append(reqs, &request{body: body, insts: []*core.Instance{in}})
		}
	} else {
		var err error
		reqs, err = newStream(wl.sched(cfg.seed), wl.fresh).chunk(0, wl.layerReqs)
		if err != nil {
			return inprocTimes{}, err
		}
	}
	return inprocLayers(reqs)
}

// inprocLayers times, on one goroutine with nothing else running:
// instio decode of each body as aaserve decodes it (with MB/s and bytes
// allocated), aaserve's response encoding, cache.CanonicalizeKeyed,
// core.SuperOptimal, core.Assign2Linearized and engine.Solve.
func inprocLayers(reqs []*request) (inprocTimes, error) {
	var t inprocTimes
	var dec, mbps, alloc, enc, canon, so, a2, solve []float64
	eng := engine.New(engine.Options{})
	defer eng.Close()
	key := cache.KeyFromString("perfbench")
	for _, rq := range reqs {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := decodeAsServer(rq.body, len(rq.insts) > 1); err != nil {
			return t, err
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		dec = append(dec, ms(d))
		mbps = append(mbps, float64(len(rq.body))/1e6/d.Seconds())
		alloc = append(alloc, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))

		answers := make([]instio.AssignmentJSON, len(rq.insts))
		for k, in := range rq.insts {
			t0 := time.Now()
			if _, err := cache.CanonicalizeKeyed(in, key); err != nil {
				return t, err
			}
			canon = append(canon, ms(time.Since(t0)))
			t0 = time.Now()
			sop := core.SuperOptimal(in)
			so = append(so, ms(time.Since(t0)))
			gs := core.Linearize(in, sop)
			t0 = time.Now()
			core.Assign2Linearized(in, gs)
			a2 = append(a2, ms(time.Since(t0)))
			t0 = time.Now()
			resp, err := eng.Solve(context.Background(), &engine.Request{Instance: in, WantUtility: true})
			if err != nil {
				return t, err
			}
			solve = append(solve, ms(time.Since(t0)))
			bound := resp.Bound
			if math.IsNaN(bound) {
				bound = sop.Total
			}
			answers[k] = instio.AssignmentJSON{Server: resp.Assignment.Server, Alloc: resp.Assignment.Alloc,
				Utility: resp.Utility, Bound: bound}
		}
		t0 = time.Now()
		if err := encodeAsServer(answers); err != nil {
			return t, err
		}
		enc = append(enc, ms(time.Since(t0)))
	}
	return inprocTimes{
		decodeMs: median(dec), decodeMBps: median(mbps), decodeAllocMB: median(alloc),
		encodeMs: median(enc), canonMs: median(canon),
		superoptMs: median(so), assign2Ms: median(a2), solveMs: median(solve),
	}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// decodeAsServer decodes a body the way aaserve does: instio.Decode for
// /solve, a streaming json.Decoder with instio.DecodeNext per element
// for /solve/batch.
func decodeAsServer(body []byte, batch bool) error {
	if !batch {
		_, err := instio.Decode(bytes.NewReader(body))
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if _, err := dec.Token(); err != nil {
		return err
	}
	for dec.More() {
		if _, err := instio.DecodeNext(dec); err != nil {
			return err
		}
	}
	_, err := dec.Token()
	return err
}

// encodeAsServer renders answers with aaserve's encoder settings: an
// indented json.Encoder for one /solve answer, and for a batch the
// streaming framing ("[\n  ", elements by MarshalIndent at one level,
// ",\n  " between them, "\n]\n").
func encodeAsServer(answers []instio.AssignmentJSON) error {
	var buf bytes.Buffer
	if len(answers) == 1 {
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return enc.Encode(answers[0])
	}
	for k, a := range answers {
		b, err := json.MarshalIndent(a, "  ", "  ")
		if err != nil {
			return err
		}
		if k == 0 {
			buf.WriteString("[\n  ")
		} else {
			buf.WriteString(",\n  ")
		}
		buf.Write(b)
	}
	buf.WriteString("\n]\n")
	return nil
}
