package main

import (
	"encoding/json"
	"fmt"
	"math"

	"aa/internal/check"
	"aa/internal/core"
	"aa/internal/instio"
)

// relTol is how far a reported utility or bound may sit from the value
// the benchmark recomputes, relative to the larger of the two.
const relTol = 1e-9

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// checkAssignment verifies one answer against its instance: feasible
// (check.Feasible), utility F recomputed, F/F̂ at least α. reported is
// the utility the server sent, or NaN when the caller has none. It
// returns F/F̂.
func checkAssignment(in *core.Instance, a core.Assignment, reported, fhat float64) (float64, error) {
	if err := check.Feasible(in, a, 0); err != nil {
		return 0, err
	}
	f := a.Utility(in)
	if !math.IsNaN(reported) && !relClose(f, reported) {
		return 0, fmt.Errorf("reported utility %v, recomputed %v", reported, f)
	}
	ratio := f / fhat
	if !(ratio >= core.Alpha) {
		return ratio, fmt.Errorf("F/F̂ = %v/%v = %v is below α = %v", f, fhat, ratio, core.Alpha)
	}
	return ratio, nil
}

// answer is the part of a verified fresh answer a later repeat must
// reproduce bit for bit.
type answer struct {
	server []int
	alloc  []float64
}

// verifier checks HTTP answers outside the timed region and remembers
// fresh answers for the relay's repeats.
type verifier struct {
	recent map[int]answer // fresh ordinal → answer, pruned to the window
}

func newVerifier() *verifier { return &verifier{recent: make(map[int]answer)} }

// verify decodes body (one assignment, or an array of them for a batch)
// and checks it against rq. It returns the worst F/F̂ of the answer.
func (v *verifier) verify(rq *request, body []byte) (float64, error) {
	var as []instio.AssignmentJSON
	if len(rq.insts) == 1 {
		as = make([]instio.AssignmentJSON, 1)
		if err := json.Unmarshal(body, &as[0]); err != nil {
			return 0, fmt.Errorf("decoding answer: %w", err)
		}
	} else if err := json.Unmarshal(body, &as); err != nil {
		return 0, fmt.Errorf("decoding batch answer: %w", err)
	}
	if len(as) != len(rq.insts) {
		return 0, fmt.Errorf("%d answers for %d instances", len(as), len(rq.insts))
	}
	ratios := make([]float64, len(as))
	err := parallelFor(len(as), func(k int) error {
		in, a := rq.insts[k], as[k]
		if len(a.Server) != in.N() || len(a.Alloc) != in.N() {
			return fmt.Errorf("instance %d: answer covers %d/%d threads of %d", k, len(a.Server), len(a.Alloc), in.N())
		}
		fhat := core.SuperOptimal(in).Total
		if !relClose(fhat, a.Bound) {
			return fmt.Errorf("instance %d: reported bound %v, recomputed F̂ %v", k, a.Bound, fhat)
		}
		r, err := checkAssignment(in, core.Assignment{Server: a.Server, Alloc: a.Alloc}, a.Utility, fhat)
		if err != nil {
			return fmt.Errorf("instance %d: %w", k, err)
		}
		ratios[k] = r
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(as) == 1 {
		if err := v.matchRepeat(rq, as[0]); err != nil {
			return 0, err
		}
	}
	worst := math.Inf(1)
	for _, r := range ratios {
		worst = math.Min(worst, r)
	}
	return worst, nil
}

// matchRepeat records a fresh answer, or checks a repeat against the
// answer of the instance it shuffles: mapped back through the shuffle,
// server and alloc must be bit-equal.
func (v *verifier) matchRepeat(rq *request, a instio.AssignmentJSON) error {
	if rq.fresh >= 0 {
		v.recent[rq.fresh] = answer{server: a.Server, alloc: a.Alloc}
		delete(v.recent, rq.fresh-repeatWindow)
		return nil
	}
	if rq.of < 0 {
		return nil // warm-up
	}
	orig, ok := v.recent[rq.of]
	if !ok {
		return fmt.Errorf("repeat of fresh instance %d, whose answer failed or is gone", rq.of)
	}
	for k, p := range rq.perm {
		if a.Server[k] != orig.server[p] || math.Float64bits(a.Alloc[k]) != math.Float64bits(orig.alloc[p]) {
			return fmt.Errorf("repeat of fresh instance %d differs at thread %d: server %d alloc %v, original server %d alloc %v",
				rq.of, k, a.Server[k], a.Alloc[k], orig.server[p], orig.alloc[p])
		}
	}
	return nil
}
