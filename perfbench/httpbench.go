package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// cluster is the set of servers an HTTP workload talks to: one aaserve
// node, fronted by an aarelay on the relay workload.
type cluster struct {
	node  *proc
	relay *proc
}

// front is the server the client sends its requests to.
func (c *cluster) front() *proc {
	if c.relay != nil {
		return c.relay
	}
	return c.node
}

func (c *cluster) procs() []*proc {
	if c.relay != nil {
		return []*proc{c.node, c.relay}
	}
	return []*proc{c.node}
}

func (c *cluster) stop() {
	if c == nil {
		return
	}
	c.relay.stop()
	c.node.stop()
}

// startCluster starts the workload's servers with their default flags
// (addresses aside; the relay also gets its workload's cache mode and
// size) and returns once the front answers /readyz 200 and, behind a
// relay, the relay has probed its node ready. traceDir, when set, turns
// on -trace-out into files there. It returns the set-up time.
func startCluster(ctx context.Context, cfg *config, relay bool, traceDir string) (*cluster, time.Duration, error) {
	traceArgs := func(name string) []string {
		if traceDir == "" {
			return nil
		}
		return []string{"-trace-out", filepath.Join(traceDir, name+".jsonl")}
	}
	t0 := time.Now()
	c := &cluster{}
	var err error
	c.node, err = startProc("aaserve", filepath.Join(cfg.bin, "aaserve"),
		append([]string{"-addr", "127.0.0.1:0"}, traceArgs("aaserve")...))
	if err != nil {
		return nil, 0, err
	}
	if err := waitOK(ctx, cfg.control, c.node.url("/readyz"), nil); err != nil {
		c.stop()
		return nil, 0, err
	}
	if relay {
		args := []string{"-addr", "127.0.0.1:0", "-nodes", c.node.addr,
			"-cache", "shared", "-cache-size", strconv.Itoa(relayCacheSize)}
		c.relay, err = startProc("aarelay", filepath.Join(cfg.bin, "aarelay"), append(args, traceArgs("aarelay")...))
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		if err := waitOK(ctx, cfg.control, c.relay.url("/readyz"), nil); err != nil {
			c.stop()
			return nil, 0, err
		}
		if err := waitOK(ctx, cfg.control, c.relay.url("/nodes"), nodeReady); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	return c, time.Since(t0), nil
}

// nodeReady reports whether a relay's /nodes snapshot shows every node
// ready.
func nodeReady(body []byte) bool {
	var snap struct {
		Nodes []struct {
			State string `json:"state"`
		} `json:"nodes"`
	}
	if json.Unmarshal(body, &snap) != nil || len(snap.Nodes) == 0 {
		return false
	}
	for _, n := range snap.Nodes {
		if n.State != "ready" {
			return false
		}
	}
	return true
}

// loadClient is the workload's single closed-loop client: one keep-alive
// connection, so every request waits for the previous answer.
func loadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// phase is what one sequence of requests measured. Its requests are
// timed in windows of windowReqs; pick fills lat, slotLat, rates, timed
// and cpu from the windows it reports.
type phase struct {
	lat      []float64 // milliseconds per request
	slotLat  []float64 // milliseconds of the schedule's repeat-slot requests
	rates    []float64 // requests per second of each reported window
	timed    time.Duration
	sent     int
	failed   int
	repeats  int // repeat requests sent (relay)
	minRatio float64
	reqBytes int64
	rspBytes int64
	firstErr error
	cpu      time.Duration // server (or, in-process, own) CPU over the reported windows
	wins     []*window     // completed windows, in order
	cur      *window       // the window being filled
	// stealShare and pickedSteal are the shares of CPU capacity the
	// hypervisor stole during the timed requests of all windows and of
	// the reported ones. They explain a noisy run; they are not metrics
	// of the program.
	stealShare, pickedSteal float64
}

func newPhase() *phase { return &phase{minRatio: 1} }

// window is windowReqs consecutive measured requests.
type window struct {
	n       int // requests sent
	lat     []float64
	slotLat []float64
	timed   time.Duration
	stolen  float64 // hypervisor steal ticks during its timed requests
	cpu     time.Duration
}

// steal is the share of the machine's CPU capacity the hypervisor gave
// to other guests while the window's requests were being timed.
func (w *window) steal() float64 {
	return stealShare(w.stolen, w.timed)
}

func stealShare(ticks float64, d time.Duration) float64 {
	return ticks / (d.Seconds() * clockTicks * float64(runtime.NumCPU()))
}

// observe adds one measured request to the current window: its round
// trip rt, the CPU it used (in-process only), the steal ticks taken
// while it was timed and, when it succeeded, its latency. It returns the
// window this request completed, or nil.
func (ph *phase) observe(rt, cpu time.Duration, stolen float64, ok, repeatSlot bool) *window {
	if ph.cur == nil {
		ph.cur = &window{}
	}
	w := ph.cur
	w.n++
	w.timed += rt
	w.cpu += cpu
	w.stolen += stolen
	if ok {
		w.lat = append(w.lat, ms(rt))
		if repeatSlot {
			w.slotLat = append(w.slotLat, ms(rt))
		}
	}
	if w.n < windowReqs {
		return nil
	}
	ph.wins = append(ph.wins, w)
	ph.cur = nil
	return w
}

// clean is the timed time and sample count of the windows under
// maxSteal.
func (ph *phase) clean() (time.Duration, int) {
	var t time.Duration
	n := 0
	for _, w := range ph.wins {
		if w.steal() <= maxSteal {
			t += w.timed
			n += len(w.lat)
		}
	}
	return t, n
}

// pick reports every window under maxSteal and, if those hold less than
// p asks for, the least stolen of the others until they hold enough.
func (ph *phase) pick(p plan) {
	order := append([]*window(nil), ph.wins...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].steal() < order[j].steal() })
	var stolen, pickedStolen float64
	var all time.Duration
	for _, w := range order {
		stolen += w.stolen
		all += w.timed
		if w.steal() > maxSteal && ph.timed.Seconds() >= p.seconds && len(ph.lat) >= p.minCount {
			continue
		}
		ph.lat = append(ph.lat, w.lat...)
		ph.slotLat = append(ph.slotLat, w.slotLat...)
		if len(w.lat) > 0 {
			ph.rates = append(ph.rates, throughput(w.lat))
		}
		ph.timed += w.timed
		ph.cpu += w.cpu
		pickedStolen += w.stolen
	}
	ph.stealShare = stealShare(stolen, all)
	ph.pickedSteal = stealShare(pickedStolen, ph.timed)
}

func (ph *phase) fail(err error) {
	ph.failed++
	if ph.firstErr == nil {
		ph.firstErr = err
	}
}

// plan says how long a phase runs: until its windows under maxSteal
// hold seconds of timed request time and minCount samples, at most
// three times seconds (and maxPhaseWall) of wall time. onCount, when
// set, runs (outside the timed region) after each completed request.
type plan struct {
	seconds  float64
	minCount int
	onCount  func(ph *phase) error
}

func (p plan) done(ph *phase, wallStart time.Time) bool {
	if wall := time.Since(wallStart); wall > maxPhaseWall || wall.Seconds() > 3*p.seconds {
		return true
	}
	t, n := ph.clean()
	return t.Seconds() >= p.seconds && n >= p.minCount
}

// httpRunner drives one workload's requests against a cluster.
type httpRunner struct {
	client *http.Client
	path   string
	chunk  int // requests built before each stretch of timed sending
	ver    *verifier
	buf    bytes.Buffer
	// traced sends a traceparent on every measured request, so the
	// servers' spans of request i carry trace id traceID(i).
	traced bool
}

// traceID is the trace id the benchmark gives measured request i.
func traceID(i int) string { return fmt.Sprintf("%016x%016x", uint64(0xbe7c4), uint64(i)+1) }

// send posts one request and verifies the answer; only the round trip
// is timed. It returns the round-trip time and the hypervisor steal
// ticks taken during it, or an error for a failed, refused or wrong
// answer.
func (h *httpRunner) send(ctx context.Context, url string, rq *request, ph *phase) (time.Duration, float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+h.path, bytes.NewReader(rq.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if h.traced && rq.index >= 0 {
		req.Header.Set("traceparent", fmt.Sprintf("00-%s-%016x-01", traceID(rq.index), uint64(rq.index)+1))
	}
	h.buf.Reset()
	steal0 := stealTicks()
	t0 := time.Now()
	resp, err := h.client.Do(req)
	if err == nil {
		_, err = h.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	rt := time.Since(t0)
	stolen := stealTicks() - steal0
	ph.sent++
	if rq.of >= 0 {
		ph.repeats++
	}
	if err != nil {
		return rt, stolen, err
	}
	ph.reqBytes += int64(len(rq.body))
	ph.rspBytes += int64(h.buf.Len())
	if resp.StatusCode != http.StatusOK {
		return rt, stolen, fmt.Errorf("status %d: %.200s", resp.StatusCode, h.buf.String())
	}
	ratio, err := h.ver.verify(rq, h.buf.Bytes())
	if err != nil {
		return rt, stolen, fmt.Errorf("request %d: %w", rq.index, err)
	}
	ph.minRatio = min(ph.minRatio, ratio)
	return rt, stolen, nil
}

// warm sends the warm-up requests; they are verified but not timed.
func (h *httpRunner) warm(ctx context.Context, c *cluster, reqs []*request, ph *phase) {
	for _, rq := range reqs {
		if _, _, err := h.send(ctx, c.front().url(""), rq, ph); err != nil {
			ph.fail(err)
		}
	}
}

// run sends the measured stream from position 0 until p says stop, then
// picks the windows it reports. The servers' CPU is read around each
// window. The benchmark's own garbage collector is off while requests
// are in flight and runs once per chunk instead, before the chunk is
// sent, so that collecting the client's input-building and verification
// garbage never competes with a server for the CPU.
func (h *httpRunner) run(ctx context.Context, c *cluster, st *stream, p plan) (*phase, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ph := newPhase()
	var cpu0 time.Duration
	wall := time.Now()
	for next := 0; !p.done(ph, wall); {
		reqs, err := st.chunk(next, h.chunk)
		if err != nil {
			return nil, err
		}
		next += len(reqs)
		runtime.GC()
		for _, rq := range reqs {
			if p.done(ph, wall) {
				break
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if ph.cur == nil {
				if cpu0, err = clusterCPU(c); err != nil {
					return nil, err
				}
			}
			rt, stolen, err := h.send(ctx, c.front().url(""), rq, ph)
			if err != nil {
				ph.fail(err)
			}
			if w := ph.observe(rt, 0, stolen, err == nil, rq.repeatSlot); w != nil {
				cpu1, err := clusterCPU(c)
				if err != nil {
					return nil, err
				}
				w.cpu = cpu1 - cpu0
			}
			if p.onCount != nil {
				if err := p.onCount(ph); err != nil {
					return nil, err
				}
			}
		}
	}
	ph.pick(p)
	return ph, nil
}

func clusterCPU(c *cluster) (time.Duration, error) {
	var total time.Duration
	for _, p := range c.procs() {
		t, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

func clusterRSS(c *cluster) (float64, error) {
	total := 0.0
	for _, p := range c.procs() {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}
