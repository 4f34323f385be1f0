package main

import (
	"bytes"
	"fmt"
	"sync"

	"aa/internal/core"
	"aa/internal/gen"
	"aa/internal/instio"
	"aa/internal/rng"
	"aa/internal/utility"
)

// Instance shapes. The paper's §VII generator (gen.Instance: uniform v
// and w, 3-knot PCHIP) at n=10⁴ feeds /solve; gen.MixedFamilies feeds
// the batches; the library workload uses the paper generator above the
// core's parallel threshold.
const (
	serversM  = 64
	capacityC = 1000

	paperN   = 10_000
	mixedN   = 1000
	batchLen = 32
	libraryN = 131_072
	// libraryPool instances are built before timing and solved in turn.
	libraryPool = 4
)

// The repeat schedule: exactly one request in every repeatEvery is the
// group's repeat slot; on the relay workload that slot carries a
// thread-shuffled copy of one of the last repeatWindow fresh instances.
const (
	repeatEvery  = 4
	repeatWindow = 8
)

// relayCacheSize sizes the relay's shared cache so that every scheduled
// repeat is an exact hit whatever shard its key hashes to. The cache
// bounds each of its 8 shards (cache.DefaultShards) separately. Between
// a fresh instance's store and its last possible repeat, the entries
// used more recently than it are at most the 7 fresh instances after it
// and the 7 before it that were still in the window, so 15 entries per
// shard never evict it. The bound also keeps relay memory flat over any
// run length.
const relayCacheSize = 8 * (2*repeatWindow - 1)

// relayFillReqs is the fewest measured requests a relay run sends:
// enough misses (three in every repeatEvery requests) to fill the relay
// cache, so that the relay's peak RSS is the full cache's, not a
// measure of how far the run got.
const relayFillReqs = relayCacheSize * repeatEvery / (repeatEvery - 1)

// Stream purposes: each request's randomness comes from its own
// rng.SplitPath(stream, purpose, index...) sub-stream, so a request's
// bytes depend only on the seed and its position, never on chunking or
// on how many workers built it.
const (
	purposeFresh uint64 = iota + 1
	purposeWarm
	purposeSlot
	purposeRepeat
	purposePerm
)

// slot is one position of a workload's request stream.
type slot struct {
	index      int
	repeatSlot bool // the group's repeat slot (hit_latency_p50_ms samples)
	fresh      int  // fresh-instance ordinal, or -1 for a repeat
	of         int  // for a repeat: the fresh ordinal it copies, else -1
}

// schedule maps stream positions to slots.
type schedule struct {
	seed    uint64
	stream  uint64
	repeats bool // whether repeat slots carry repeats (relay) or fresh requests
}

func (s schedule) rand(ids ...uint64) *rng.Rand {
	return rng.New(s.seed).SplitPath(append([]uint64{s.stream}, ids...)...)
}

// slotPos is the seeded position of group g's repeat slot, never 0 so
// the first request of the stream is fresh.
func (s schedule) slotPos(g int) int {
	return 1 + s.rand(purposeSlot, uint64(g)).Intn(repeatEvery-1)
}

func (s schedule) at(i int) slot {
	g, pos := i/repeatEvery, i%repeatEvery
	sp := s.slotPos(g)
	sl := slot{index: i, repeatSlot: pos == sp, fresh: -1, of: -1}
	if !s.repeats {
		sl.fresh = i
		return sl
	}
	repeatsBefore := g
	if pos > sp {
		repeatsBefore++
	}
	freshBefore := i - repeatsBefore
	if !sl.repeatSlot {
		sl.fresh = freshBefore
		return sl
	}
	w := min(repeatWindow, freshBefore)
	sl.of = freshBefore - 1 - s.rand(purposeRepeat, uint64(i)).Intn(w)
	return sl
}

// request is one pre-encoded HTTP request and what its verifier needs.
type request struct {
	slot
	body  []byte
	insts []*core.Instance // the instances in body, in order
	// perm maps a repeat back to its original: thread k of this body is
	// thread perm[k] of fresh instance `of`.
	perm []int
}

// stream builds a workload's requests chunk by chunk, before each chunk
// is timed, so memory holds one chunk of bodies rather than a run's.
type stream struct {
	sched schedule
	// fresh builds the instances of one fresh request from its stream.
	fresh func(r *rng.Rand) ([]*core.Instance, error)
	// recent holds the fresh instances a later repeat may still copy.
	recent map[int]*core.Instance
}

func newStream(sched schedule, fresh func(r *rng.Rand) ([]*core.Instance, error)) *stream {
	return &stream{sched: sched, fresh: fresh, recent: make(map[int]*core.Instance)}
}

// warmup builds k requests from a purpose of their own: they never
// repeat and never collide with the measured stream.
func (st *stream) warmup(k int) ([]*request, error) {
	reqs := make([]*request, k)
	err := parallelFor(k, func(i int) error {
		ins, err := st.fresh(st.sched.rand(purposeWarm, uint64(i)))
		if err != nil {
			return err
		}
		reqs[i] = &request{slot: slot{index: -1 - i, fresh: -1, of: -1}, insts: ins}
		reqs[i].body, err = encodeBody(ins)
		return err
	})
	return reqs, err
}

// chunk builds requests [from, from+count) of the measured stream.
func (st *stream) chunk(from, count int) ([]*request, error) {
	reqs := make([]*request, count)
	for k := range reqs {
		reqs[k] = &request{slot: st.sched.at(from + k)}
	}
	// Fresh requests first (repeats may copy one from this very chunk),
	// then the repeats.
	err := parallelFor(count, func(k int) error {
		rq := reqs[k]
		if rq.fresh < 0 {
			return nil
		}
		ins, err := st.fresh(st.sched.rand(purposeFresh, uint64(rq.fresh)))
		if err != nil {
			return err
		}
		rq.insts = ins
		rq.body, err = encodeBody(ins)
		return err
	})
	if err != nil {
		return nil, err
	}
	maxFresh := -1
	for _, rq := range reqs {
		if rq.fresh >= 0 {
			st.recent[rq.fresh] = rq.insts[0]
			maxFresh = rq.fresh
		}
	}
	err = parallelFor(count, func(k int) error {
		rq := reqs[k]
		if rq.of < 0 {
			return nil
		}
		orig, ok := st.recent[rq.of]
		if !ok {
			return fmt.Errorf("request %d repeats fresh instance %d, which is no longer held", rq.index, rq.of)
		}
		rq.perm = st.sched.rand(purposePerm, uint64(rq.index)).Perm(orig.N())
		rq.insts = []*core.Instance{permuted(orig, rq.perm)}
		var err error
		rq.body, err = encodeBody(rq.insts)
		return err
	})
	for f := range st.recent {
		if f <= maxFresh-repeatWindow {
			delete(st.recent, f)
		}
	}
	return reqs, err
}

// permuted returns in with its threads reordered: thread k of the
// result is thread perm[k] of in.
func permuted(in *core.Instance, perm []int) *core.Instance {
	out := &core.Instance{M: in.M, C: in.C, Threads: make([]utility.Func, len(perm))}
	for k, p := range perm {
		out.Threads[k] = in.Threads[p]
	}
	return out
}

// encodeBody renders one instance as a /solve body, or several as a
// /solve/batch JSON array, with instio.Encode's indented layout.
func encodeBody(ins []*core.Instance) ([]byte, error) {
	var buf bytes.Buffer
	if len(ins) == 1 {
		err := instio.Encode(&buf, ins[0])
		return buf.Bytes(), err
	}
	buf.WriteByte('[')
	for k, in := range ins {
		if k > 0 {
			buf.WriteByte(',')
		}
		if err := instio.Encode(&buf, in); err != nil {
			return nil, err
		}
	}
	buf.WriteString("]\n")
	return buf.Bytes(), nil
}

func paperInstance(r *rng.Rand, n int) (*core.Instance, error) {
	return gen.Instance(gen.DefaultUniform, serversM, capacityC, n, r)
}

func paperRequest(r *rng.Rand) ([]*core.Instance, error) {
	in, err := paperInstance(r, paperN)
	return []*core.Instance{in}, err
}

func mixedBatch(r *rng.Rand) ([]*core.Instance, error) {
	ins := make([]*core.Instance, batchLen)
	for k := range ins {
		ins[k] = gen.MixedFamilies(serversM, capacityC, mixedN, r.Split(uint64(k)))
	}
	return ins, nil
}

// genWorkers is how many goroutines build inputs and verify answers.
// Both run only while no request is in flight, so they may use every
// core of the 2-core machines this benchmark targets without competing
// with the servers.
const genWorkers = 2

// parallelFor runs f(0..n-1) on genWorkers goroutines and returns the
// first error.
func parallelFor(n int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for w := 0; w < genWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
