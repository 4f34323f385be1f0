package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported high
// percentile for it to be a measurement rather than one outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted and is not modified.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based nearest-rank index of the p-th percentile
// among n samples.
func rankIndex(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// tailPercentile is percentile for a reported high percentile: it fails
// unless at least minBeyond samples lie strictly above the rank.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if n := len(xs); n == 0 || n-1-rankIndex(n, p) < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves fewer than %d samples beyond it", p, n, minBeyond)
	}
	return percentile(xs, p), nil
}

// minSamplesFor is the smallest sample count whose p-th percentile has
// minBeyond samples beyond it.
func minSamplesFor(p float64) int {
	n := 1
	for n-1-rankIndex(n, p) < minBeyond {
		n++
	}
	return n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, 50)
}

// windowReqs is how many consecutive measured requests make a window,
// the unit in which a run checks the hypervisor's steal. A multiple of
// repeatEvery, so that a window holds exactly one repeat slot per
// schedule group and, on the library workload, each pool instance
// equally often (libraryPool divides repeatEvery). About a second of
// requests: steal on the shared host comes in bursts of seconds.
const windowReqs = 3 * repeatEvery

// maxSteal is the share of the machine's CPU capacity the hypervisor
// may steal during a window's timed requests for the window to count as
// clean. A run measures until its clean windows hold the requested
// time; while steal lasts, latency rises by more than the stolen share
// and the run would measure the host, not the program.
const maxSteal = 0.03

// throughput is requests completed per second of their own latency:
// the closed-loop client's request rate over those samples.
func throughput(lat []float64) float64 {
	total := 0.0
	for _, x := range lat {
		total += x
	}
	return float64(len(lat)) / (total / 1e3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// coveredDuration is the length of the union of the intervals
// [start, start+dur) clipped to [lo, hi): the part of a parent span
// that its children cover, counting overlapping children once.
func coveredDuration(lo, hi float64, starts, durs []float64) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(starts))
	for i := range starts {
		a, b := math.Max(starts[i], lo), math.Min(starts[i]+durs[i], hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, math.Inf(-1), math.Inf(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = math.Max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}
