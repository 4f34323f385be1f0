package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process started by the benchmark.
type proc struct {
	cmd    *exec.Cmd
	addr   string        // host:port from the "listening on" line
	exited chan struct{} // closed once Wait has returned
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// startProc runs bin with args and returns once the process has printed
// its "NAME: listening on http://ADDR" line on stderr. The rest of stderr
// (one access-log line per request) is read and discarded.
func startProc(name, bin string, args []string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = childEnv()
	cmd.Stdout = io.Discard
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	prefix := name + ": listening on http://"
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			if line := sc.Text(); !found && strings.HasPrefix(line, prefix) {
				found = true
				addrc <- strings.TrimPrefix(line, prefix)
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening: %v", name, cmd.ProcessState)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not start listening within 30s", name)
	}
}

// childEnv is the benchmark's environment without the AA_* variables,
// which would change the servers' flag defaults.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "AA_") {
			env = append(env, kv)
		}
	}
	return env
}

// stop sends SIGTERM (the servers drain and flush their traces), waits,
// and kills the process if it has not exited after 20 seconds.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

// waitOK polls GET url until it answers 200 and ok accepts the body.
func waitOK(ctx context.Context, c *http.Client, url string, ok func([]byte) bool) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", url, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// cpuTime is the user plus system CPU the process has used so far.
func (p *proc) cpuTime() (time.Duration, error) {
	return pidCPUTime(strconv.Itoa(p.cmd.Process.Pid))
}

// pidCPUTime reads utime+stime of /proc/<pid>/stat ("self" for the
// benchmark itself).
func pidCPUTime(pid string) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are space-separated, utime and stime being the
	// 12th and 13th of them.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB is VmHWM, the process's peak resident set, in MB.
func (p *proc) peakRSSMB() (float64, error) {
	return pidPeakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
}

func pidPeakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stealTicks is the CPU time the hypervisor gave to other guests, summed
// over this machine's CPUs (the steal column of /proc/stat), in clock
// ticks; 0 where the kernel does not report it.
func stealTicks() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

// scrape fetches a Prometheus text exposition and returns every sample
// keyed by its name with labels, e.g. `aa_cache_hits_total` or
// `aa_pool_enqueue_latency_seconds_sum`.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metric line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after-before for each name.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
