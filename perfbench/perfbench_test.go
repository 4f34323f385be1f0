package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"aa/internal/cache"
)

func bodyHashes(t *testing.T, wl *workload, seed uint64, chunks ...int) [][32]byte {
	t.Helper()
	st := newStream(wl.sched(seed), wl.fresh)
	var out [][32]byte
	from := 0
	for _, n := range chunks {
		reqs, err := st.chunk(from, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, rq := range reqs {
			out = append(out, sha256.Sum256(rq.body))
		}
		from += n
	}
	return out
}

// The same seed must give byte-identical bodies however the stream is
// chunked; another seed must give different bodies.
func TestSeedDeterminesBodies(t *testing.T) {
	for _, wl := range workloads {
		if wl.path == "" {
			continue
		}
		t.Run(wl.name, func(t *testing.T) {
			a := bodyHashes(t, wl, 7, 6)
			b := bodyHashes(t, wl, 7, 2, 4)
			c := bodyHashes(t, wl, 8, 6)
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("seed 7 body %d differs between runs", i)
				}
				if a[i] == c[i] {
					t.Errorf("seeds 7 and 8 give the same body %d", i)
				}
			}
		})
	}
}

func TestSeedDeterminesLibraryInstances(t *testing.T) {
	wl, err := lookupWorkload("library-paper-128k")
	if err != nil {
		t.Fatal(err)
	}
	hash := func(seed uint64) [32]byte {
		ins, err := libraryInstances(seed, wl, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ins[0].N() != libraryN {
			t.Fatalf("library instance has %d threads, want %d", ins[0].N(), libraryN)
		}
		body, err := encodeBody(ins)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(body)
	}
	if hash(3) != hash(3) {
		t.Error("seed 3 gives different library instances")
	}
	if hash(3) == hash(4) {
		t.Error("seeds 3 and 4 give the same library instance")
	}
}

// Exactly one request in four is a repeat, it copies one of the last
// repeatWindow fresh instances, and fresh ordinals run without gaps.
func TestRelayScheduleRepeatShare(t *testing.T) {
	wl, err := lookupWorkload("relay-repeat-10k")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		sched := wl.sched(seed)
		repeats, nextFresh := 0, 0
		for i := 0; i < 4000; i++ {
			sl := sched.at(i)
			if i%repeatEvery == 0 && repeats != i/repeatEvery {
				t.Fatalf("seed %d: %d repeats in the first %d requests", seed, repeats, i)
			}
			if !sl.repeatSlot {
				if sl.fresh != nextFresh || sl.of != -1 {
					t.Fatalf("seed %d request %d: fresh %d of %d, want fresh %d", seed, i, sl.fresh, sl.of, nextFresh)
				}
				nextFresh++
				continue
			}
			repeats++
			if sl.fresh != -1 || sl.of < 0 || sl.of >= nextFresh || sl.of < nextFresh-repeatWindow {
				t.Fatalf("seed %d request %d repeats fresh %d with %d fresh sent", seed, i, sl.of, nextFresh)
			}
		}
		if repeats*repeatEvery != 4000 {
			t.Fatalf("seed %d: %d repeats in 4000 requests", seed, repeats)
		}
	}
}

// Every scheduled repeat must be an exact hit in a relay cache of
// relayCacheSize, even if every key lands in the same shard.
func TestRelayCacheCoversRepeatWindow(t *testing.T) {
	wl, err := lookupWorkload("relay-repeat-10k")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Config{Mode: cache.ModeShared, Size: relayCacheSize})
	if err != nil {
		t.Fatal(err)
	}
	key := func(purpose, i uint64) cache.Key {
		var k cache.Key
		// The first 8 bytes pick the shard: multiples of the shard count
		// all land in shard 0.
		binary.LittleEndian.PutUint64(k[:8], uint64(cache.DefaultShards)*(i+1))
		binary.LittleEndian.PutUint64(k[8:16], purpose)
		return k
	}
	for w := uint64(0); w < 4; w++ {
		c.Put(key(purposeWarm, w), 0, &cache.Entry{})
	}
	sched := wl.sched(5)
	for i := 0; i < 2000; i++ {
		sl := sched.at(i)
		if sl.repeatSlot {
			if _, ok := c.Get(key(purposeFresh, uint64(sl.of))); !ok {
				t.Fatalf("request %d: repeat of fresh %d missed", i, sl.of)
			}
			continue
		}
		k := key(purposeFresh, uint64(sl.fresh))
		if _, ok := c.Get(k); ok {
			t.Fatalf("request %d: fresh %d hit", i, sl.fresh)
		}
		c.Put(k, 0, &cache.Entry{})
	}
}

// The reported high percentile always has at least minBeyond samples
// above it, and fewer samples are refused.
func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	if got := minSamplesFor(90); got != 100 {
		t.Errorf("minSamplesFor(90) = %d, want 100", got)
	}
	for n := 1; n <= 500; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // distinct, unsorted
		}
		p, err := tailPercentile(xs, 90)
		if n < minSamplesFor(90) {
			if err == nil {
				t.Fatalf("n=%d: p90 accepted with fewer than %d beyond it", n, minBeyond)
			}
			continue
		}
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		beyond, atOrBelow := 0, 0
		for _, x := range xs {
			if x > p {
				beyond++
			} else {
				atOrBelow++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: %d samples beyond p90", n, beyond)
		}
		if float64(atOrBelow) < 0.9*float64(n) {
			t.Fatalf("n=%d: only %d samples at or below p90", n, atOrBelow)
		}
	}
}

// A window holds whole schedule groups, so exactly one repeat slot per
// group. A phase reports every window the hypervisor left clean and
// only as many of the others, least stolen first, as it needs to reach
// its timed seconds and sample count.
func TestPickReportsCleanWindowsFirst(t *testing.T) {
	if windowReqs%repeatEvery != 0 || windowReqs%libraryPool != 0 {
		t.Fatalf("windowReqs %d is not a whole number of schedule groups and pool rounds", windowReqs)
	}
	sched := workloads[1].sched(7)
	for i := 0; i < 100*windowReqs; i += windowReqs {
		slots := 0
		for j := i; j < i+windowReqs; j++ {
			if sched.at(j).repeatSlot {
				slots++
			}
		}
		if slots != windowReqs/repeatEvery {
			t.Fatalf("window at %d: %d repeat slots, want %d", i, slots, windowReqs/repeatEvery)
		}
	}

	rt := 100 * time.Millisecond
	// capacity is the steal ticks a whole window's timed time offers.
	capacity := (time.Duration(windowReqs) * rt).Seconds() * clockTicks * float64(runtime.NumCPU())
	build := func(steals ...float64) *phase {
		ph := newPhase()
		for k, share := range steals {
			for i := 0; i < windowReqs; i++ {
				stolen := 0.0
				if i == 0 {
					stolen = share * capacity
				}
				lat := rt + time.Duration(k)*time.Millisecond
				if w := ph.observe(lat, time.Millisecond, stolen, true, i%repeatEvery == 0); (w != nil) != (i == windowReqs-1) {
					t.Fatalf("window %d request %d: completed %v", k, i, w != nil)
				}
			}
		}
		return ph
	}
	window := (time.Duration(windowReqs) * rt).Seconds()

	// Two clean windows suffice: the stolen ones are left out.
	ph := build(0, 0.2, 0.01, 0.5)
	if _, n := ph.clean(); n != 2*windowReqs {
		t.Fatalf("clean samples %d, want %d", n, 2*windowReqs)
	}
	ph.pick(plan{seconds: window, minCount: windowReqs})
	if len(ph.rates) != 2 || len(ph.lat) != 2*windowReqs || len(ph.slotLat) != 2*windowReqs/repeatEvery {
		t.Fatalf("picked %d windows, %d samples, %d repeat-slot", len(ph.rates), len(ph.lat), len(ph.slotLat))
	}
	if ph.lat[0] != 100 || ph.lat[windowReqs] != 102 || ph.cpu != 2*windowReqs*time.Millisecond {
		t.Errorf("picked latencies %v, %v and cpu %v; want windows 0 and 2", ph.lat[0], ph.lat[windowReqs], ph.cpu)
	}
	if math.Abs(ph.rates[0]-10) > 1e-9 || !(ph.pickedSteal > 0 && ph.pickedSteal < 0.01) || !(ph.stealShare > 0.1) {
		t.Errorf("rate %v/s, steal %v in the picked windows and %v in all; want 10/s, under 0.01, over 0.1",
			ph.rates[0], ph.pickedSteal, ph.stealShare)
	}

	// With too few clean windows, the least stolen of the rest fill in.
	ph = build(0.5, 0, 0.2, 0.3)
	ph.pick(plan{seconds: 2.5 * window, minCount: windowReqs})
	if len(ph.rates) != 3 || ph.lat[0] != 101 || ph.lat[windowReqs] != 102 || ph.lat[2*windowReqs] != 103 {
		t.Errorf("picked %d windows starting %v %v %v; want windows 1, 2 and 3", len(ph.rates),
			ph.lat[0], ph.lat[windowReqs], ph.lat[2*windowReqs])
	}
}

func TestCoveredDurationCountsOverlapOnce(t *testing.T) {
	cases := []struct {
		starts, durs []float64
		want         float64
	}{
		{nil, nil, 0},
		{[]float64{10}, []float64{20}, 20},
		{[]float64{10, 15}, []float64{20, 20}, 25},            // overlap
		{[]float64{10, 40}, []float64{5, 5}, 10},              // disjoint
		{[]float64{-5, 90}, []float64{10, 50}, 5 + 10},        // clipped to [0, 100)
		{[]float64{20, 10, 12}, []float64{5, 30, 2}, 30},      // nested, unsorted
		{[]float64{0, 30, 60}, []float64{30, 30, 30}, 90 - 0}, // touching
	}
	for i, c := range cases {
		if got := coveredDuration(0, 100, c.starts, c.durs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: covered %v, want %v", i, got, c.want)
		}
	}
}

func TestProcStats(t *testing.T) {
	cpu, err := pidCPUTime("self")
	if err != nil {
		t.Fatal(err)
	}
	rss, err := pidPeakRSSMB("self")
	if err != nil {
		t.Fatal(err)
	}
	if cpu < 0 || rss <= 0 {
		t.Errorf("cpu %v, peak RSS %v MB", cpu, rss)
	}
}

// BENCHMARK.json must list exactly the workloads, why-sentences and
// metrics (names and units, in order) that the benchmark reports.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name || doc.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, wl.name, wl.why)
		}
	}
	ph := &phase{timed: time.Second, sent: 100, minRatio: 1}
	for i := 0; i < 100; i++ {
		ph.lat = append(ph.lat, float64(i+1))
	}
	ph.slotLat = ph.lat[:25]
	ph.rates = []float64{1}
	e2e := &outcome{attempted: 100}
	if err := e2e.endToEnd(ph, 1, []float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	layers := &outcome{}
	layers.perLayer(workloads[1], inprocTimes{}, spanTable{}, &countWindow{k: 1, repeats: 0,
		node: map[string]float64{}, rely: map[string]float64{"aa_cache_misses_total": 1}}, ph, ph)
	for _, c := range []struct {
		what string
		want []struct{ Name, Unit string }
		got  []metricValue
	}{{"end_to_end", doc.EndToEnd, e2e.metrics}, {"per_layer", doc.PerLayer, layers.metrics}} {
		if len(c.want) != len(c.got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", c.what, len(c.want), len(c.got))
		}
		for i, m := range c.got {
			if c.want[i].Name != m.name || c.want[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					c.what, i, c.want[i].Name, c.want[i].Unit, m.name, m.unit)
			}
		}
	}
}
